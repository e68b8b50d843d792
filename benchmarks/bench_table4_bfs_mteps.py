"""Table 4 — BFS throughput in MTEPS (the Graph500 headline metric).

Millions of Traversed Edges Per Second: edges in the source's reachable
component divided by BFS time, averaged over several sources — the number
every Graph500-era GPU paper headlines.  Shape claims: MTEPS ordering
reference ≪ cpu < cuda_sim; cuda_sim MTEPS *rises* with scale (launch
overhead amortises), the signature GPU-BFS curve.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.bench.harness import time_operation
from repro.bench.tables import format_table

from repro.backends.dispatch import get_backend, use_backend
from repro.gpu.device import get_device, reset_device

from conftest import bench_backend, save_json, save_table, sim_metrics

# Kernel launches per scale-12 BFS at the seed commit (assign + masked vxm
# pipeline, two launches per hop); the fused frontier_step must beat this.
SEED_BFS_LAUNCHES_SCALE12 = 8

SCALES = [8, 10, 12]
REFERENCE_MAX_SCALE = 10
BACKENDS = ["reference", "cpu", "cuda_sim"]
SOURCES = [0, 1, 2, 3]


def make_graph(scale):
    return gb.generators.rmat(scale=scale, edge_factor=16, seed=44)


_GRAPHS = {s: make_graph(s) for s in SCALES}


def traversed_edges(g, source) -> int:
    """Edges incident to the reachable set (Graph500 counts each once)."""
    reached = gb.algorithms.bfs_levels(g, source)
    idx = reached.indices_array()
    deg = g.row_degrees()
    return int(deg[idx].sum()) // 2


def mteps(backend: str, g, sources) -> float:
    total_edges = 0
    total_time = 0.0
    for s in sources:
        m = time_operation(
            backend,
            lambda s=s: gb.algorithms.bfs_levels(g, s),
            repeat=1 if backend == "reference" else 2,
        )
        total_time += m.seconds
        total_edges += traversed_edges(g, s)
    return total_edges / max(total_time, 1e-12) / 1e6


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale", SCALES)
def test_table4_bfs(benchmark, backend, scale):
    if backend == "reference" and scale > REFERENCE_MAX_SCALE:
        pytest.skip("sequential baseline capped at scale 10")
    g = _GRAPHS[scale]
    rate = mteps(backend, g, SOURCES[:2])
    benchmark.extra_info["mteps"] = round(rate, 3)
    bench_backend(
        benchmark,
        backend,
        lambda: gb.algorithms.bfs_levels(g, 0),
        rounds=1 if backend == "reference" else 2,
    )


def test_table4_render(benchmark):
    def build():
        rows = []
        series = {b: [] for b in BACKENDS}
        for s in SCALES:
            g = _GRAPHS[s]
            row = [s, g.nvals // 2]
            for b in BACKENDS:
                if b == "reference" and s > REFERENCE_MAX_SCALE:
                    row.append(float("nan"))
                    series[b].append(float("nan"))
                    continue
                rate = mteps(b, g, SOURCES)
                row.append(round(rate, 3))
                series[b].append(rate)
            rows.append(row)
        table = format_table(
            "Table 4 — BFS throughput (MTEPS; cuda_sim from modeled time)",
            ["scale", "edges", "reference", "cpu", "cuda_sim"],
            rows,
        )
        save_table("table4_bfs_mteps", table)
        # Shape: ordering at every measured scale.
        for i, s in enumerate(SCALES):
            if s <= REFERENCE_MAX_SCALE:
                assert series["cpu"][i] > series["reference"][i]
                assert series["cuda_sim"][i] > series["cpu"][i]
        # Shape: GPU MTEPS grows with scale (launch overhead amortises).
        assert series["cuda_sim"][-1] > series["cuda_sim"][0]
        # Machine-readable record: MTEPS series + simulated launch counts
        # (the fused frontier_step runs ONE kernel per BFS hop).
        launches = {}
        for s in SCALES:
            reset_device()
            get_backend("cuda_sim").evict_all()
            with use_backend("cuda_sim"):
                gb.algorithms.bfs_levels(_GRAPHS[s], 0)
                launches[str(s)] = sum(
                    1
                    for r in get_device().profiler.records
                    if r.kind == "kernel"
                )
        record = {
            "table": "table4_bfs_mteps",
            "scales": SCALES,
            "mteps": series,
            "bfs_kernel_launches": launches,
            "seed_bfs_kernel_launches_scale12": SEED_BFS_LAUNCHES_SCALE12,
            # Deterministic simulator counters per scale, gated by CI
            # against the committed baseline (check_bench_regressions.py).
            "cuda_sim_metrics": {
                str(s): sim_metrics(lambda s=s: gb.algorithms.bfs_levels(_GRAPHS[s], 0))
                for s in SCALES
            },
        }
        save_json("table4", record)
        assert launches["12"] < SEED_BFS_LAUNCHES_SCALE12, (
            "fused BFS must launch strictly fewer kernels than the seed "
            f"pipeline: {launches['12']} vs {SEED_BFS_LAUNCHES_SCALE12}"
        )
        return table

    benchmark.pedantic(build, rounds=1, iterations=1)
