"""End-to-end benchmark on both clocks: five workloads, one command.

Run every workload, each in a fresh single-threaded child process::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --out e2e-runs/a
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --out e2e-runs/t --trace
    PYTHONPATH=src python benchmarks/e2e/run.py --smoke --seed 0

Run one workload in this process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload bfs_s14 --seed 3 --seconds 20 --trace 0

One workload prints ``workload metric value unit`` lines, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  The exit code is non-zero when any output differs from its
oracle.  ``PYTHONPATH`` is optional: the library is imported from ``src/``
next to this directory.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from catalog import COUNTERS, END_TO_END, PER_LAYER, SPANS, deterministic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_SECONDS = 20
SMOKE_SECONDS = 1.0
MIN_ROUNDS = 3
SINGLE_THREAD = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class LazyProbe:
    """Counts lazy flushes and their tape lengths at ``schedule.sync`` entry."""

    def __init__(self) -> None:
        self.flushes = 0
        self.nodes = 0

    def install(self, patcher: Any) -> None:
        from repro.lazy import schedule

        orig, tape_len, probe = schedule.sync, schedule.tape_len, self

        @functools.wraps(orig)
        def sync(*args: Any, **kwargs: Any) -> Any:
            n = tape_len()
            if n:
                probe.flushes += 1
                probe.nodes += n
            return orig(*args, **kwargs)

        patcher.replace_everywhere(orig, sync)


def snapshot(wl: Any, probe: LazyProbe) -> Dict[str, Any]:
    """Cumulative simulated counters; deltas of two give the window's."""
    s: Dict[str, Any] = dict.fromkeys(
        ("kernel_us", "transfer_us", "launches", "h2d", "replays", "members",
         "elided", "pool_hits", "allocs"), 0.0
    )
    per_device = []
    for dev in wl.devices():
        prof = dev.profiler  # an observation point: forces pending lazy work
        per_device.append(prof.kernel_time_us)
        s["kernel_us"] += prof.kernel_time_us
        s["transfer_us"] += prof.transfer_time_us
        s["launches"] += prof.launch_count
        s["h2d"] += prof.h2d_bytes
        for r in prof.records:
            if r.kind == "kernel" and r.name.startswith("graph_replay["):
                s["replays"] += 1
                s["members"] += len(r.members)
        st = dev.allocator.stats
        s["elided"] += st.h2d_elided_bytes
        s["pool_hits"] += st.pool_hit_count
        s["allocs"] += st.alloc_count
    s["per_device_kernel_us"] = per_device
    cluster = wl.cluster
    if cluster is not None:
        s["sim_us"] = cluster.makespan_us
        s["comm_bytes"] = cluster.comm.stats.total_bytes
        s["comm_count"] = cluster.comm.stats.total_count
        s["comm_us"] = cluster.comm.stats.time_us
    else:
        s["sim_us"] = s["kernel_us"] + s["transfer_us"]
        s["comm_bytes"] = s["comm_count"] = s["comm_us"] = 0.0
    s["flushes"], s["nodes"] = probe.flushes, probe.nodes
    return s


def percentile(values: Any, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def measure(name: str, seed: int, seconds: float, traced: bool, mode: str,
            out: Optional[Path]) -> Dict[str, Any]:
    """Set up, time and check one workload in this process, in rounds.

    A round is a timed set-up followed by the workload's ``window`` ops.
    Rounds repeat until the next one would end past ``seconds`` (at least
    ``MIN_ROUNDS``).  Op latencies and throughput pool every round's ops,
    which do the same work; ``setup_s`` is the median set-up; simulated and
    virtual counters cover the first round's ops.
    """
    from repro.lazy import schedule

    import spans
    from workloads import WORKLOADS

    clock = time.perf_counter
    wl = WORKLOADS[name](seed, mode)
    patcher = spans.Patcher()
    probe = LazyProbe()
    tracer = spans.Tracer() if traced else None
    setup_s: List[float] = []
    round_s: List[float] = []
    lat: List[float] = []
    bounds: List[tuple] = []
    busy = 0.0  # op time plus library work after each round's last op
    op_errors: List[str] = []
    outputs: List[Dict[int, Any]] = []  # per round: op index -> digest
    failed_ops = 0
    t_start = clock()
    while len(round_s) < MIN_ROUNDS or (
        clock() - t_start + statistics.median(round_s) <= seconds
    ):
        r = len(round_s)
        t_round = clock()
        wl.release()
        gc.collect()
        t0 = clock()
        wl.setup()
        setup_s.append(clock() - t0)
        if r == 0:  # every library module is loaded by now
            probe.install(patcher)
            if tracer is not None:
                tracer.install()
        with wl.session():
            if r == 0:
                schedule.wait()
                c0 = snapshot(wl, probe)
            for i in range(wl.window):
                inp = wl.next_input(i)
                if tracer is not None:
                    tracer.op = len(lat)
                t0 = clock()
                try:
                    result = wl.op(inp)
                except Exception:  # a failed op is counted, and the run goes on
                    result = None
                    op_errors.append(traceback.format_exc())
                t1 = clock()
                if tracer is not None:
                    tracer.op = -1
                lat.append(t1 - t0)
                bounds.append((t0, t1))
                busy += t1 - t0
                if result is not None:
                    wl.record(i, result)
            t0 = clock()
            wl.finish()
            busy += clock() - t0
            outputs.append(wl.outputs)
            if r == 0:
                c1 = snapshot(wl, probe)
                layer_counters = wl.window_counters()
                virtual = wl.end_to_end()
                # Peak over one set-up and one window: a fixed amount of work.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed_ops += wl.failed_ops
        round_s.append(clock() - t_round)
    if tracer is not None:
        tracer.uninstall()
    patcher.restore()

    want = wl.expected(sorted(set().union(*outputs)))
    mismatches = [
        f"round {r} op {i}: output differs from the cpu oracle"
        for r, got in enumerate(outputs)
        for i, d in sorted(got.items())
        if d != want[i]
    ]
    for e in op_errors[:3]:
        print(e, file=sys.stderr)
    for m in mismatches[:20]:
        print(f"MISMATCH {name}: {m}", file=sys.stderr)
    attempted = len(lat)
    failed = len(op_errors) + failed_ops + len(mismatches)

    d = {k: c1[k] - c0[k] for k in c0 if k != "per_device_kernel_us"}
    n = wl.window
    lat_ms = [x * 1e3 for x in lat]
    metrics: Dict[str, float] = {
        "host_ops_per_s": attempted / busy,
        "host_op_ms_p50": percentile(lat_ms, 50),
        "host_op_ms_p90": percentile(lat_ms, 90),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "sim_us_per_op": d["sim_us"] / n,
        "launches_per_op": d["launches"] / n,
        "h2d_bytes_per_op": d["h2d"] / n,
    }
    metrics.update(virtual)
    metrics["failed_frac"] = failed / attempted

    layers: Dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
    layers.update({
        "gpu.kernel_us": d["kernel_us"] / n,
        "gpu.transfer_us": d["transfer_us"] / n,
        "gpu.replays": d["replays"] / n,
        "gpu.h2d_bytes": d["h2d"] / n,
        "gpu.h2d_elided_bytes": d["elided"] / n,
        "gpu.pool_hit_rate": d["pool_hits"] / max(d["pool_hits"] + d["allocs"], 1),
        "lazy.flushes": d["flushes"] / n,
        "lazy.nodes_per_flush": d["nodes"] / max(d["flushes"], 1),
        # Kernel executions charged inside a replay record, over all of them.
        "lazy.replay_ratio": d["members"]
        / max(d["members"] + d["launches"] - d["replays"], 1),
        "distributed.comm_bytes": d["comm_bytes"] / n,
        "distributed.comm_count": d["comm_count"] / n,
        "distributed.comm_us": d["comm_us"] / n,
        "distributed.max_kernel_us": max(
            b - a for a, b in zip(c0["per_device_kernel_us"], c1["per_device_kernel_us"])
        ) / n,
    })
    layers.update(layer_counters)

    res: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "mode": mode,
        "traced": traced, "ops": attempted, "window_ops": n,
        "setup_runs_s": setup_s, "rounds": len(round_s), "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "layers": layers,
    }
    if tracer is not None:
        self_times = tracer.self_times()
        roots = tracer.root_seconds()
        per_op_ms = 1e3 / attempted
        for span in SPANS:
            layers[f"{span}.self_ms"] = self_times[span]["self_s"] * per_op_ms
            layers[f"{span}.calls"] = self_times[span]["calls"] / attempted
        other = sum(lat) - sum(roots.values())
        layers["other.self_ms"] = other * per_op_ms
        res["by_layer"] = {
            "op_wall_s": sum(lat),
            "spans": self_times,
            "other_s": other,
            "point_calls": tracer.point_calls(),
            "restored": True,  # Patcher.restore raises otherwise
        }
        if out is not None:
            tracer.write_chrome(out / f"{name}.trace.json", bounds, t_start)
    return res


def unit(metric: str) -> str:
    return (END_TO_END.get(metric) or PER_LAYER[metric]).unit


def print_lines(res: Dict[str, Any]) -> None:
    w = res["workload"]
    for group in ("metrics", "layers"):
        for k, v in res[group].items():
            print(f"{w} {k} {v:.6g} {unit(k)}")


def run_one(args: argparse.Namespace) -> int:
    bench = json.loads(BENCHMARK_JSON.read_text())
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  "smoke" if args.smoke else "full", out)
    if out is not None:
        (out / f"{args.workload}.json").write_text(json.dumps(res, indent=1) + "\n")
    print_lines(res)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    values = {**res["metrics"], **res["layers"]}
    line = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if res["correct"] else 1


def child(workload: str, args: argparse.Namespace, traced: bool,
          out: Optional[Path]) -> Dict[str, Any]:
    """One workload in a fresh single-threaded process; its full result.

    A traced child's Chrome trace is moved to ``out`` when one is given.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(traced)), "--out", tmp]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.DEVNULL)
        path = Path(tmp) / f"{workload}.json"
        if not path.is_file():
            raise SystemExit(f"{workload}: child exited {proc.returncode} without a result")
        if traced and out is not None:
            (Path(tmp) / f"{workload}.trace.json").replace(out / f"{workload}.trace.json")
        return json.loads(path.read_text())


def same_deterministic(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Names of simulated/virtual metrics that differ between two results."""
    diff = []
    for group in ("metrics", "layers"):
        for k, v in a[group].items():
            if deterministic(k) and b[group].get(k) != v:
                diff.append(k)
    return diff


def run_all(args: argparse.Namespace) -> int:
    from workloads import SIZES

    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    ok = True
    report: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                              "mode": "smoke" if args.smoke else "full",
                              "workloads": {}}
    for w in SIZES["full"]:
        res = child(w, args, False, out)
        print_lines(res)
        if args.trace:
            tr = child(w, args, True, out)
            res["traced"] = tr
            res["trace_overhead"] = (
                tr["metrics"]["host_op_ms_p50"] / res["metrics"]["host_op_ms_p50"]
            )
            diff = same_deterministic(res, tr)
            if diff:
                print(f"{w}: traced run changed {diff}", file=sys.stderr)
                ok = False
            ok = ok and tr["correct"]
            for k, v in tr["layers"].items():
                if k not in res["layers"]:
                    print(f"{w} {k} {v:.6g} {unit(k)}")
            print(f"{w} trace_overhead {res['trace_overhead']:.6g} ratio")
        ok = ok and res["correct"]
        report["workloads"][w] = res
    if out is not None:
        k = len(list(out.glob(f"run-seed{args.seed}-*.json")))
        (out / f"run-seed{args.seed}-{k:02d}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"timed phase per workload (default {RUN_SECONDS}, smoke {SMOKE_SECONDS})")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="wrap the layers and report per-layer metrics")
    p.add_argument("--out", help="directory for JSON results (and Chrome traces)")
    p.add_argument("--smoke", action="store_true", help="small sizes, about 2 s per workload")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"run.py: needs {SRC}/repro and {BENCHMARK_JSON}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
