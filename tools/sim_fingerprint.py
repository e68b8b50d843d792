#!/usr/bin/env python3
"""Digest every deterministic simulated counter, per (suite, backend spec).

A refactor of the simulated backends that claims "counters unchanged" is
checked by running this tool on the old and the new source tree and
diffing the two outputs::

    python tools/sim_fingerprint.py > new.json
    python tools/sim_fingerprint.py --src /path/to/old/src > old.json
    diff old.json new.json

Three suites run on the simulated specs:

- ``fuzz`` — random GraphBLAS programs (:func:`generate_program`);
- ``mutation`` — graph-mutation programs (edge batches, compactions,
  incremental queries with their full-recompute oracle);
- ``algorithms`` — a fixed algorithm suite on an R-MAT graph, at
  multi_sim P ∈ {1, 2, 3, 4} with the lazy tape on and off.

After each program the tool records, per device: every profiler record
(name, kind, start, duration, flops, bytes, threads, replay members),
the H2D / elided / D2H counters, the clock and the rebind count; and per
cluster: comm stats, makespan and the ordering-edge count.  Allocator
alloc/free/pool-hit counts and ``in_use`` are left out: buffers are freed
by finalizers at garbage-collection time, so those counters can differ
between two runs of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

_REPO = Path(__file__).resolve().parent.parent

FUZZ_SPECS = (
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:1:equal_rows",
    "multi_sim:2:equal_rows",
    "multi_sim:2:equal_rows:lazy=off",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
    "multi_sim:4:degree_balanced",
)
MUTATION_SPECS = (
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:1:equal_rows",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
)
ALGORITHM_SPECS = (
    ("cuda_sim", "cuda_sim:lazy=off")
    + tuple(
        f"multi_sim:{p}:equal_rows{lazy}" for p in (1, 2, 3, 4) for lazy in ("", ":lazy=off")
    )
    + ("multi_sim:3:degree_balanced", "multi_sim:4:degree_balanced")
)

#: Allocator counters that do not depend on garbage-collection timing.
_MEMORY_KEYS = (
    "h2d_count",
    "h2d_bytes",
    "h2d_elided_count",
    "h2d_elided_bytes",
    "d2h_count",
    "d2h_bytes",
)


def _device_counters(dev) -> Dict[str, Any]:
    # Reading dev.profiler is an observation point: it commits open
    # loop-capture aggregates before the records are read.
    records = [
        (r.name, r.kind, r.start_us, r.duration_us, r.flops, r.bytes, r.threads, r.members)
        for r in dev.profiler.records
    ]
    stats = dev.allocator.stats
    return {
        "records": records,
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
        "edges": len(cluster.edges),
    }


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fuzz(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.testing.executor import execute
    from repro.testing.programs import generate_program

    for i in range(programs):
        execute(generate_program(i), spec)
        yield _counters(spec)


def _mutation(spec: str, programs: int) -> Iterator[Dict[str, Any]]:
    from repro.testing.programs import generate_mutation_program
    from repro.testing.streaming import execute_streaming

    for i in range(programs):
        execute_streaming(generate_mutation_program(i), spec)
        yield _counters(spec)


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
    for run in _algorithm_suite():
        # A fresh graph per program: a container that outlives its device
        # can read as rebound on a later device that reuses its id(), which
        # makes the rebind count depend on the address allocator.
        with backend_session(spec):
            run(rmat(7, 8, seed=0, weighted=True))
        yield _counters(spec)


SUITES = {
    "fuzz": (_fuzz, FUZZ_SPECS),
    "mutation": (_mutation, MUTATION_SPECS),
    "algorithms": (_algorithms, ALGORITHM_SPECS),
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
    counts = {"fuzz": args.programs, "mutation": args.mutations, "algorithms": 0}
    result: Dict[str, Any] = {}
    for suite in args.suite or SUITES:
        result.update(fingerprint(suite, counts[suite], per_program=args.per_program))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
