"""Figure 8 — multi-device strong scaling on the partitioned backend.

Reconstructed experiment: BFS, PageRank, and delta-stepping SSSP on R-MAT
graphs, executed by the ``multi_sim`` backend over P ∈ {1, 2, 4, 8}
simulated devices (degree-balanced block-row shards, NVLink-class links).

Shape claims:

- the P=1 cluster is the single-device backend: its launch count, H2D
  bytes and kernel time equal plain ``cuda_sim``'s exactly (the delegation
  invariant);
- BFS speedup grows with P at scale ≥ 14 — compute shrinks ~1/P while the
  frontier exchange grows only with frontier size;
- the comm/compute ratio grows monotonically with P for every algorithm —
  adding devices buys less and less as collectives take over the critical
  path (PageRank visibly rolls over by P=8, and delta-stepping's many
  small bucket relaxations are comm-bound outright: a 1-D partition does
  not pay for fine-grained frontiers).
"""

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.bench.tables import format_series
from conftest import save_json, save_table, sim_metrics

PARTS = [1, 2, 4, 8]
SPLITTER = "degree_balanced"
SCALE = 14
SCALE_WEIGHTED = 13


def _cases():
    g = gb.generators.rmat(scale=SCALE, edge_factor=8, seed=21)
    gw = gb.generators.rmat(
        scale=SCALE_WEIGHTED, edge_factor=8, seed=22, weighted=True
    )
    return {
        "bfs": lambda: gb.algorithms.bfs_levels(g, 0),
        "pagerank": lambda: gb.algorithms.pagerank(g, max_iter=20),
        "delta_stepping": lambda: gb.algorithms.sssp_delta_stepping(gw, 0),
    }


def run_case(ms, fn) -> dict:
    """One (algorithm, P) cell: reset the cluster, run, read the counters."""
    ms.reset()
    with use_backend("multi_sim"):
        fn()
    m = ms.metrics()
    comm_us = m["comm"]["time_us"]
    compute_us = max(m["makespan_us"] - comm_us, 1e-9)
    return {
        "kernel_launches": m["kernel_launches"],
        "h2d_bytes": round(m["h2d_bytes"]),
        "makespan_us": m["makespan_us"],
        "kernel_us": m["max_kernel_time_us"],
        "comm_us": round(comm_us, 3),
        "comm_bytes": round(m["comm"]["total_bytes"]),
        "comm_compute_ratio": round(comm_us / compute_us, 4),
    }


def test_fig8_render(benchmark):
    def build():
        cases = _cases()
        ms = get_backend("multi_sim")
        cells = {}  # {algo: {P: row}}
        for algo, fn in cases.items():
            cells[algo] = {}
            for nparts in PARTS:
                ms.configure(nparts=nparts, splitter=SPLITTER)
                cells[algo][nparts] = run_case(ms, fn)

        # P=1 delegation invariant: the one-device cluster runs every op on
        # its one executor, so its deterministic counters equal the plain
        # single-device backend's.
        base = sim_metrics(cases["bfs"])
        p1 = {
            k: cells["bfs"][1][k]
            for k in ("kernel_launches", "h2d_bytes", "kernel_us")
        }
        assert p1 == base, (p1, base)

        speedups = {
            algo: [
                cells[algo][1]["makespan_us"] / cells[algo][p]["makespan_us"]
                for p in PARTS
            ]
            for algo in cells
        }
        ratios = {
            algo: [cells[algo][p]["comm_compute_ratio"] for p in PARTS]
            for algo in cells
        }

        fig = format_series(
            f"Figure 8 — multi-device speedup vs P (R-MAT scale {SCALE}, "
            f"{SPLITTER})",
            "P",
            PARTS,
            speedups,
        )
        save_table("fig8_multigpu_scaling", fig)

        # Shape: BFS strong-scales — every added device still helps.
        bfs = speedups["bfs"]
        assert all(b > a for a, b in zip(bfs, bfs[1:])), bfs
        assert bfs[-1] > 2.0
        # Shape: communication takes over the critical path as P grows.
        for algo, r in ratios.items():
            assert all(b > a for a, b in zip(r, r[1:])), (algo, r)

        record = {
            "figure": "fig8_multigpu_scaling",
            "parts": PARTS,
            "splitter": SPLITTER,
            "scale": SCALE,
            "scale_weighted": SCALE_WEIGHTED,
            "makespan_us": {
                algo: [cells[algo][p]["makespan_us"] for p in PARTS]
                for algo in cells
            },
            "speedup": speedups,
            "comm_bytes": {
                algo: [cells[algo][p]["comm_bytes"] for p in PARTS]
                for algo in cells
            },
            "comm_compute_ratio": ratios,
            "p1_parity": {"cuda_sim": base, "multi_sim_p1": p1},
            # Deterministic counters per (algo, P) cell — diffed by CI's
            # regression gate like the single-device figures; the simulated
            # makespan the speedups come from is gated exactly.
            "cuda_sim_metrics": {
                f"{algo}_P{p}": {
                    "kernel_launches": cells[algo][p]["kernel_launches"],
                    "h2d_bytes": cells[algo][p]["h2d_bytes"],
                    "makespan_us": cells[algo][p]["makespan_us"],
                }
                for algo in sorted(cells)
                for p in PARTS
            },
        }
        save_json("fig8", record)
        return fig

    benchmark.pedantic(build, rounds=1, iterations=1)
