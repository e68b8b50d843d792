#!/usr/bin/env python3
"""Digest every deterministic simulated counter, per (suite, backend spec).

A refactor of the simulated backends that claims "counters unchanged" is
checked by running this tool on the old and the new source tree and
diffing the two outputs::

    python tools/sim_fingerprint.py > new.json
    python tools/sim_fingerprint.py --src /path/to/old/src > old.json
    diff old.json new.json

Four suites run on the simulated specs:

- ``fuzz`` — random GraphBLAS programs (:func:`generate_program`);
- ``mutation`` — graph-mutation programs (edge batches, compactions,
  incremental queries with their full-recompute oracle);
- ``algorithms`` — a fixed algorithm suite on an undirected and then on a
  directed R-MAT graph (a symmetric matrix is its own transpose, a
  directed one is not, so both branches of every transpose consumer
  run), at multi_sim P ∈ {1, 2, 3, 4} with the lazy tape on and off;
- ``serve`` — small fig9-shaped traces through :class:`GraphService`,
  batched and with ``max_batch=1``, with a tenant whose ``max_queue``
  sheds, deadlines that expire queries, one ``mutate`` and one raw matrix
  write that leaves queued pools stale.

The fuzz, mutation and algorithm suites also run ``cuda_sim:noreuse`` and
``multi_sim:2:equal_rows:noreuse`` (loop capture off), where every op
launches and charges on its own.

After each program the tool records, per device: every profiler record
(name, kind, start, duration, flops, bytes, threads, replay members),
the profiler's H2D bytes, the allocator's elided-upload counters, the
clock and the rebind count; and per cluster: comm stats and makespan.
A fuzz or mutation program adds the result of each op (a container's
indices, values and dtype, a scalar, or the name of the error it
raised): every backend runs the write pipeline, assign and the
other frontend merges through shared code, so the cross-backend fuzzer
cannot see a change there, but an old-vs-new diff of these digests can.
A serve program adds each query record (qid,
tenant, status, start, completion, batch size, lane, digest), the depth
of every ``Overloaded``, the batch sizes, and the scheduler's busy time
and makespan.  Allocator alloc/free/pool-hit counts and ``in_use`` are
left out: buffers are freed by finalizers at garbage-collection time, so
those counters can differ between two runs of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

_REPO = Path(__file__).resolve().parent.parent

#: Loop capture off: every launch is charged on its own, not folded into a
#: replay record.
_NOREUSE_SPECS = ("cuda_sim:noreuse", "multi_sim:2:equal_rows:noreuse")

FUZZ_SPECS = (
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:1:equal_rows",
    "multi_sim:2:equal_rows",
    "multi_sim:2:equal_rows:lazy=off",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
    "multi_sim:4:degree_balanced",
) + _NOREUSE_SPECS
MUTATION_SPECS = (
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:1:equal_rows",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
) + _NOREUSE_SPECS
ALGORITHM_SPECS = (
    ("cuda_sim", "cuda_sim:lazy=off")
    + tuple(
        f"multi_sim:{p}:equal_rows{lazy}" for p in (1, 2, 3, 4) for lazy in ("", ":lazy=off")
    )
    + ("multi_sim:3:degree_balanced", "multi_sim:4:degree_balanced")
    + _NOREUSE_SPECS
)
SERVE_SPECS = ("cuda_sim", "multi_sim:1:degree_balanced", "multi_sim:2:degree_balanced")

#: Allocator counters that do not depend on garbage-collection timing.
_MEMORY_KEYS = ("h2d_elided_count", "h2d_elided_bytes")

#: fig9's traffic shape (benchmarks/bench_fig9_serving_qps.py) on 4 tenants,
#: offered at a fifth of its rate so that pools also close by age mid-trace.
_SERVE_TRAFFIC = dict(qps=50_000.0, n_users=1_200_000, n_tenants=4, source_skew=1.5, ppr_iters=5)
#: (max_batch, max_wait_us): fig9's batched arm and the unbatched arm.
_SERVE_POLICIES = ((128, 3_000.0), (1, 0.0))


def _device_counters(dev) -> Dict[str, Any]:
    # Reading dev.profiler is an observation point: it commits open
    # loop-capture aggregates before the records are read.
    prof = dev.profiler
    records = [
        (r.name, r.kind, r.start_us, r.duration_us, r.flops, r.bytes, r.threads, r.members)
        for r in prof.records
    ]
    stats = dev.allocator.stats
    return {
        "records": records,
        "h2d_bytes": prof.h2d_bytes,
        "memory": {k: getattr(stats, k) for k in _MEMORY_KEYS},
        "clock_us": dev.clock_us,
        "rebinds": dev.rebinds,
    }


def _counters(spec: str) -> Dict[str, Any]:
    """Every deterministic counter the backend of ``spec`` holds right now."""
    from repro.backends.dispatch import get_backend
    from repro.gpu.device import get_device

    name = spec.split(":")[0]
    if name == "cuda_sim":
        return {"devices": [_device_counters(get_device())]}
    cluster = get_backend(name).cluster
    stats = cluster.comm.stats
    return {
        "devices": [_device_counters(d) for d in cluster.devices],
        "comm": {"counts": stats.counts, "bytes": stats.bytes, "time_us": stats.time_us},
        "makespan_us": cluster.makespan_us,
    }


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _result(snapshot: Any) -> Any:
    """One op's result as plain data (executor snapshots are forced copies)."""
    from repro.core.matrix import Matrix
    from repro.core.vector import Vector

    if isinstance(snapshot, Vector):
        c = snapshot.container
        return [c.size, c.indices.tolist(), c.values.tolist(), str(c.values.dtype)]
    if isinstance(snapshot, Matrix):
        c = snapshot.container
        return [c.nrows, c.ncols, c.indptr.tolist(), c.indices.tolist(),
                c.values.tolist(), str(c.values.dtype)]
    if isinstance(snapshot, tuple):  # ("raised", name) or a streaming record
        return [_result(s) for s in snapshot]
    return snapshot


def _fuzz(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.testing.executor import execute
    from repro.testing.programs import generate_program

    for i in range(programs):
        snapshots = execute(generate_program(i), spec)
        yield {**_counters(spec), "results": [_result(s) for s in snapshots]}


def _mutation(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.testing.programs import generate_mutation_program
    from repro.testing.streaming import execute_streaming

    for i in range(programs):
        snapshots, _ = execute_streaming(generate_mutation_program(i), spec)
        yield {**_counters(spec), "results": [_result(s) for s in snapshots]}


def _algorithm_suite() -> List[Callable[[Any], Any]]:
    from repro import algorithms as alg

    return [
        lambda g: alg.bfs_levels(g, 0),
        lambda g: alg.bfs_levels(g, 0, direction="push"),
        lambda g: alg.sssp(g, 0),
        lambda g: alg.sssp_delta_stepping(g, 0, delta=2.0),
        lambda g: alg.pagerank(g, max_iter=20),
        lambda g: alg.connected_components(g),
        lambda g: alg.triangle_count(g),
        lambda g: alg.kcore(g, 3),
        lambda g: alg.mis(g, seed=1),
        lambda g: alg.label_propagation(g, max_iter=5),
        lambda g: alg.bfs_levels_multi(g, [0, 1, 2]),
        lambda g: alg.ppr_batch(g, [0, 3], iters=10),
    ]


def _algorithms(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.generators import rmat
    from repro.testing.executor import backend_session

    del programs  # the suite is fixed
    for directed in (False, True):
        for run in _algorithm_suite():
            # A fresh graph per program.  Trees older than per-device serial
            # rebind stamps counted a graph that outlived its device as
            # rebound on a later device at a recycled address; a fresh graph
            # keeps their digests deterministic, hence comparable.
            with backend_session(spec):
                run(rmat(7, 8, seed=0, weighted=True, directed=directed))
            yield _counters(spec)


def _serve_run(spec: str, seed: int, max_batch: int, max_wait_us: float) -> Dict[str, Any]:
    """One trace through a fresh service; every serving decision it made."""
    from repro.generators import rmat
    from repro.serve import BatchPolicy, GraphService, Overloaded, TrafficSpec, generate_trace

    g = rmat(8, 8, seed=seed)
    svc = GraphService(
        backend=spec.split(":")[0],
        policy=BatchPolicy(max_batch=max_batch, max_wait_us=max_wait_us),
        streams=2,
        store_results=False,
    )
    svc.register_graph(g)
    for t in range(_SERVE_TRAFFIC["n_tenants"]):
        svc.add_tenant(f"tenant{t}", weight=1.0 + t, max_queue=8 if t == 0 else 10_000)
    trace = generate_trace(TrafficSpec(n_queries=200, **_SERVE_TRAFFIC), g.nrows, seed=seed)
    rows, cols, _ = g.to_lists()
    shed = []
    for k, sub in enumerate(trace):
        if k == 30:
            g.set_element(rows[1], cols[1], 3.0)  # behind the service's back
        if k == 190:
            svc.mutate("default", lambda m: m.set_element(rows[0], cols[0], 2.0))
        # tenant1's deadlines sit below, at and above the pool's age trigger.
        deadline = sub.arrival_us + 1_000.0 * (2 + k % 3) if sub.tenant == "tenant1" else None
        try:
            svc.submit(sub.tenant, sub.query, arrival_us=sub.arrival_us, deadline_us=deadline)
        except Overloaded as exc:
            shed.append((k, exc.depth))
    svc.drain()
    return {
        "records": [
            (r.qid, r.tenant, r.status, r.start_us, r.completion_us, r.batch_size, r.lane, r.digest)
            for r in svc.records
        ],
        "shed": shed,
        "batch_sizes": svc.batch_sizes,
        "busy_us": svc.scheduler.busy_us,
        "makespan_us": svc.scheduler.makespan_us,
        "backend": _counters(spec),
    }


def _serve(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.testing.executor import backend_session

    del programs  # the suite is fixed
    for seed in (1, 2):
        for max_batch, max_wait_us in _SERVE_POLICIES:
            with backend_session(spec):
                yield _serve_run(spec, seed, max_batch, max_wait_us)


SUITES = {
    "fuzz": (_fuzz, FUZZ_SPECS),
    "mutation": (_mutation, MUTATION_SPECS),
    "algorithms": (_algorithms, ALGORITHM_SPECS),
    "serve": (_serve, SERVE_SPECS),
}


def fingerprint(suite: str, programs: int, per_program: bool = False) -> Dict[str, Any]:
    """``{"suite spec": {"programs": n, "digest": hex[, "each": [...]]}}``."""
    run, specs = SUITES[suite]
    out: Dict[str, Any] = {}
    for spec in specs:
        each = [_digest(c) for c in run(spec, programs)]
        entry: Dict[str, Any] = {"programs": len(each), "digest": _digest(each)}
        if per_program:
            entry["each"] = each
        out[f"{suite} {spec}"] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=_REPO / "src",
                    help="source tree to import repro from (default: this repo's src)")
    ap.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="suite to run (repeatable; default: all)")
    ap.add_argument("--programs", type=int, default=80,
                    help="random programs per spec in the fuzz suite")
    ap.add_argument("--mutations", type=int, default=20,
                    help="mutation programs per spec in the mutation suite")
    ap.add_argument("--per-program", action="store_true",
                    help="also list one digest per program, to locate a difference")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    counts = {"fuzz": args.programs, "mutation": args.mutations, "algorithms": 0, "serve": 0}
    result: Dict[str, Any] = {}
    for suite in args.suite or SUITES:
        result.update(fingerprint(suite, counts[suite], per_program=args.per_program))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
