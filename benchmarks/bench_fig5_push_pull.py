"""Figure 5 (ablation) — push vs pull masked SpMSpV by frontier density.

Design-choice ablation from DESIGN.md: the masked (MIN, PLUS) mxv that
drives BFS/SSSP, with the frontier occupancy swept from 0.1% to ~100%, run
with the direction forced to push and to pull.  Shape claims: push wins on
sparse frontiers (work ∝ frontier degree sum), pull wins on dense frontiers
(work ∝ nnz but sequential access, and masked-row pruning), and the two
curves cross — the direction-optimisation argument of Beamer et al. that
GBTL's masked SpMV inherits.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.bench.harness import time_operation
from repro.bench.tables import format_series
from repro.bench.workloads import random_frontier
from repro.core import operations as ops
from repro.core.semiring import MIN_PLUS
from repro.policy import policy

from conftest import bench_backend, save_table

FRACTIONS = [0.001, 0.01, 0.05, 0.2, 0.6, 1.0]
_G = gb.generators.rmat(scale=12, edge_factor=8, seed=31, weighted=True)


def make_case(fraction, direction):
    n = _G.nrows
    nnz = max(1, int(n * fraction))
    u = random_frontier(n, nnz, seed=5)
    _G.csc()  # pre-build the column cache so push needs no transpose

    def run():
        w = gb.Vector.sparse(gb.FP64, n)
        return ops.mxv(w, _G, u, MIN_PLUS, direction=direction)

    return run


@pytest.mark.parametrize("direction", ["push", "pull"])
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_fig5_direction(benchmark, direction, fraction):
    bench_backend(benchmark, "cpu", make_case(fraction, direction), rounds=3)


def test_fig5_render(benchmark):
    def build():
        series = {"push": [], "pull": [], "auto": []}
        sim = {"push": [], "pull": []}
        for f in FRACTIONS:
            for d in series:
                series[d].append(
                    time_operation("cpu", make_case(f, d), repeat=5).seconds
                )
            for d in sim:
                # This figure ablates *direction* with each kernel's native
                # schedule; lane rebinning (bench_table6) would otherwise
                # narrow pull's short-row penalty and blur the crossover.
                with policy(lanes="off"):
                    sim[d].append(
                        time_operation("cuda_sim", make_case(f, d)).seconds
                    )
        fig = format_series(
            "Figure 5 — push vs pull mxv on rmat_s12, CPU wall time (s)",
            "frontier frac",
            FRACTIONS,
            series,
        )
        fig_sim = format_series(
            "Figure 5b — same sweep, simulated GPU device time (s)",
            "frontier frac",
            FRACTIONS,
            sim,
        )
        save_table("fig5_push_pull", fig + "\n\n" + fig_sim)
        # Shape: push wins at the sparsest point, pull wins at the densest,
        # on both the measured CPU and the modeled GPU.
        for d in (series, sim):
            assert d["push"][0] < d["pull"][0], "push must win on sparse frontiers"
            assert d["pull"][-1] < d["push"][-1], "pull must win on dense frontiers"
        # Shape: auto tracks the winner within 3x at the extremes.
        assert series["auto"][0] < 3 * series["push"][0]
        assert series["auto"][-1] < 3 * series["pull"][-1]
        return fig

    benchmark.pedantic(build, rounds=1, iterations=1)
