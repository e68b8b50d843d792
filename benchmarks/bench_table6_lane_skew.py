"""Table 6 — skew-aware lane selection vs forced single-lane kernels.

Sweeps R-MAT skew (the ``a`` parameter: 0.45 ≈ near-uniform Erdős–Rényi-ish
degrees up to 0.57 = Graph500 default hubs-and-tails) plus a uniform grid,
and times a dense-frontier push SpMV and a full BFS under every lane policy:
forced ``scalar`` (thread-per-row, the seed push kernel), forced ``vector``
(warp-per-row), forced ``merge`` (merge-path equal-work partitions), and
``auto`` (per-launch row binning).

Shape claims:

- on the skewed s13 R-MAT, ``auto`` beats forced thread-per-row by >= 1.5x
  on both the push SpMV and the BFS (the acceptance bar);
- lane selection never changes results: every policy is bit-identical, on
  cuda_sim and on multi_sim at P in {1, 2, 4}, with identical launch
  counts (lanes are a schedule decision, not a kernel sequence change);
- on the uniform grid ``auto`` matches the best single lane to within a
  few percent — binning bookkeeping must not tax uniform graphs.

Emits ``BENCH_table6.json`` with the deterministic cuda_sim counters that
``check_bench_regressions.py`` gates: launches and H2D bytes, and each
case's simulated ``kernel_us``, which no lane change may raise.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.bench.tables import format_table
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.gpu.device import get_device, reset_device
from repro.policy import policy
from repro.testing.equivalence import assert_same

from conftest import fresh_device_state, save_json, save_table

LANES = ["scalar", "vector", "merge", "auto"]

# The acceptance graph: Graph500-skew R-MAT at scale 13.
ACCEPT_SCALE = 13
ACCEPT_A = 0.57
AUTO_VS_SCALAR_MIN_SPEEDUP = 1.5

GRAPHS = {
    "rmat_s13_a57": lambda: gb.generators.rmat(
        scale=ACCEPT_SCALE, edge_factor=16, seed=1, a=ACCEPT_A
    ),
    "rmat_s12_a50": lambda: gb.generators.rmat(
        scale=12, edge_factor=16, seed=1, a=0.50, b=0.20, c=0.20
    ),
    "rmat_s12_a45": lambda: gb.generators.rmat(
        scale=12, edge_factor=16, seed=1, a=0.45, b=0.22, c=0.22
    ),
    "grid_64": lambda: gb.generators.grid_2d(64, 64, seed=1),
}

_CACHE = {}


def graph(name):
    if name not in _CACHE:
        _CACHE[name] = GRAPHS[name]()
    return _CACHE[name]


def dense_frontier(n):
    return gb.Vector.full(1.0, n, gb.FP64)


def run_push_spmv(g, lane):
    """One dense-frontier push SpMV under ``lane``; returns (result, us,
    launches, h2d)."""
    fresh_device_state()
    dev = get_device()
    u = dense_frontier(g.nrows)
    with policy(lanes=lane), use_backend("cuda_sim"):
        w = gb.Vector.sparse(gb.FP64, g.nrows)
        ops.mxv(w, g, u, PLUS_TIMES, direction="push")
    prof = dev.profiler
    return w, prof.kernel_time_us, prof.launch_count, prof.h2d_bytes


def run_bfs(g, lane, source=0):
    fresh_device_state()
    dev = get_device()
    with policy(lanes=lane), use_backend("cuda_sim"):
        levels = gb.algorithms.bfs_levels(g, source)
    prof = dev.profiler
    return levels, prof.kernel_time_us, prof.launch_count, prof.h2d_bytes


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("lane", LANES)
def test_table6_push_spmv(benchmark, gname, lane):
    g = graph(gname)
    _, us, launches, _ = run_push_spmv(g, lane)
    benchmark.extra_info["simulated_us"] = round(us, 3)
    benchmark.extra_info["kernel_launches"] = launches
    benchmark.pedantic(
        lambda: run_push_spmv(g, lane), rounds=1, iterations=1
    )


@pytest.mark.parametrize("lane", LANES)
def test_table6_bfs(benchmark, lane):
    g = graph("rmat_s13_a57")
    _, us, launches, _ = run_bfs(g, lane)
    benchmark.extra_info["simulated_us"] = round(us, 3)
    benchmark.extra_info["kernel_launches"] = launches
    benchmark.pedantic(lambda: run_bfs(g, lane), rounds=1, iterations=1)


def test_table6_multi_sim_parity(benchmark):
    """Lane choice is local to each shard and never changes results."""

    def build():
        g = graph("rmat_s13_a57")
        with policy(lanes="scalar"), use_backend("cuda_sim"):
            ref = gb.algorithms.bfs_levels(g, 0)
        for nparts in (1, 2, 4):
            backend = get_backend("multi_sim").configure(nparts=nparts)
            # Each measured run starts from a reset, which empties every
            # device (a directed graph's Aᵀ shards too, rebuilt and charged
            # alike), so both runs see the same device state.
            backend.reset()
            with policy(lanes="auto"), use_backend("multi_sim"):
                auto = gb.algorithms.bfs_levels(g, 0)
            auto_launch = backend.metrics()["kernel_launches"]
            backend.reset()
            with policy(lanes="scalar"), use_backend("multi_sim"):
                forced_ = gb.algorithms.bfs_levels(g, 0)
            forced_launch = backend.metrics()["kernel_launches"]
            assert_same(auto, ref, exact=True)
            assert_same(forced_, ref, exact=True)
            assert auto_launch == forced_launch, (
                f"P={nparts}: lane policy changed launch count "
                f"({auto_launch} vs {forced_launch})"
            )

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_table6_render(benchmark):
    def build():
        rows = []
        times = {}
        metrics = {}
        for gname in GRAPHS:
            g = graph(gname)
            results = {}
            for lane in LANES:
                w, us, launches, h2d = run_push_spmv(g, lane)
                results[lane] = w
                times[(gname, "push_spmv", lane)] = us
                metrics[f"{gname}.push_{lane}"] = {
                    "kernel_launches": launches,
                    "h2d_bytes": round(h2d),
                    "kernel_us": round(us, 3),
                }
                rows.append([gname, "push_spmv", lane, round(us, 2)])
            # Lane selection is pure scheduling: bit-identical results.
            for lane in LANES[1:]:
                assert_same(results[lane], results["scalar"], exact=True)
        g = graph("rmat_s13_a57")
        bfs_results = {}
        for lane in LANES:
            levels, us, launches, h2d = run_bfs(g, lane)
            bfs_results[lane] = levels
            times[("rmat_s13_a57", "bfs", lane)] = us
            metrics[f"bfs_{lane}"] = {
                "kernel_launches": launches,
                "h2d_bytes": round(h2d),
                "kernel_us": round(us, 3),
            }
            rows.append(["rmat_s13_a57", "bfs", lane, round(us, 2)])
        for lane in LANES[1:]:
            assert bfs_results[lane].to_lists() == bfs_results["scalar"].to_lists()

        table = format_table(
            "Table 6 — lane policy vs graph skew: modeled time (µs)",
            ["graph", "op", "lane", "sim time"],
            rows,
        )
        save_table("table6_lane_skew", table)

        # Acceptance: auto >= 1.5x over forced thread-per-row on the
        # skewed graph, for both the single SpMV and the whole BFS.
        push_speedup = (
            times[("rmat_s13_a57", "push_spmv", "scalar")]
            / times[("rmat_s13_a57", "push_spmv", "auto")]
        )
        bfs_speedup = (
            times[("rmat_s13_a57", "bfs", "scalar")]
            / times[("rmat_s13_a57", "bfs", "auto")]
        )
        assert push_speedup >= AUTO_VS_SCALAR_MIN_SPEEDUP, push_speedup
        assert bfs_speedup >= AUTO_VS_SCALAR_MIN_SPEEDUP, bfs_speedup
        # Auto never loses to the native thread-per-row push lane — on any
        # graph — and on the uniform grid it must match the best single
        # lane (the binning bookkeeping stays in the noise when there is
        # no skew to exploit).
        for gname in GRAPHS:
            auto = times[(gname, "push_spmv", "auto")]
            assert auto <= times[(gname, "push_spmv", "scalar")] * 1.05, gname
        grid_best = min(
            times[("grid_64", "push_spmv", lane)] for lane in LANES[:3]
        )
        assert times[("grid_64", "push_spmv", "auto")] <= grid_best * 1.10

        record = {
            "table": "table6_lane_skew",
            "lanes": LANES,
            "graphs": sorted(GRAPHS),
            "simulated_us": {
                f"{g}.{op}.{lane}": round(us, 3)
                for (g, op, lane), us in sorted(times.items())
            },
            "auto_vs_scalar_speedup": {
                "push_spmv_s13": round(push_speedup, 3),
                "bfs_s13": round(bfs_speedup, 3),
            },
            "min_required_speedup": AUTO_VS_SCALAR_MIN_SPEEDUP,
            "cuda_sim_metrics": metrics,
        }
        save_json("table6", record)
        return table

    benchmark.pedantic(build, rounds=1, iterations=1)
