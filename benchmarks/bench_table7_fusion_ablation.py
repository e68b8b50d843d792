"""Table 7 — lazy-optimizer pass ablation: fusion, DME, sinking, capture.

Runs four pipelines — BFS on the Graph500-skew s13 R-MAT, undirected and
directed, PageRank on the s12 R-MAT pinned to 20 power iterations, and a
masked-SpGEMM statistics pipeline — under every optimizer configuration:
``eager`` (the pre-lazy baseline, ``policy(lazy="off")``), ``lazy`` (all
five passes on), and one ablation per pass (``policy(<pass>=False)``).

The undirected graph is its own transpose, so the direction pass leaves
its BFS hops to the runtime heuristic (``lazy == no_direction`` there by
design); on the directed graph pull would first build Aᵀ, and the pass
pins push.

Shape claims:

- every configuration is bit-identical — passes are schedule decisions,
  never value decisions;
- with all passes on, PageRank s12x20it and BFS s13 drop kernel launches
  *and* H2D bytes by >= 25% vs the eager baseline (the acceptance bar);
- no ablation beats the full pipeline: turning a pass off never reduces
  launches, H2D traffic, or modeled time;
- each pass pays its way: for every pass there is at least one (workload,
  counter) cell where ablating it is strictly worse.

Emits ``BENCH_table7.json`` with the deterministic cuda_sim counters that
``check_bench_regressions.py`` gates.
"""

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import use_backend
from repro.bench.tables import format_table
from repro.core import operations as ops
from repro.core.descriptor import Descriptor
from repro.core.monoid import PLUS_MONOID
from repro.core.operators import TIMES
from repro.core.semiring import PLUS_TIMES
from repro.gpu.device import get_device
from repro.policy import policy
from repro.testing.equivalence import assert_same

from conftest import fresh_device_state, save_json, save_table

PASSES = ["fuse", "dme", "sink", "direction", "capture"]
MODES = ["eager", "lazy"] + [f"no_{p}" for p in PASSES]

# Acceptance bar: lazy-all-on vs eager on launches and H2D bytes.
MIN_REDUCTION = 0.25

GRAPHS = {
    "rmat_s13": lambda: gb.generators.rmat(
        scale=13, edge_factor=16, seed=1, a=0.57
    ),
    "rmat_s13_directed": lambda: gb.generators.rmat(
        scale=13, edge_factor=16, seed=1, a=0.57, directed=True
    ),
    "rmat_s12": lambda: gb.generators.rmat(
        scale=12, edge_factor=16, seed=1, a=0.57
    ),
}

_CACHE = {}


def graph(name):
    if name not in _CACHE:
        _CACHE[name] = GRAPHS[name]()
    return _CACHE[name]


def mode_ctx(mode):
    """The lazy-layer configuration for one table column."""
    if mode == "eager":
        return policy(lazy="off")
    if mode == "lazy":
        return policy()  # cuda_sim records by default; all passes on
    return policy(**{mode[3:]: False})


def run_bfs():
    return gb.algorithms.bfs_levels(graph("rmat_s13"), 0)


def run_bfs_directed():
    return gb.algorithms.bfs_levels(graph("rmat_s13_directed"), 0)


def run_pagerank():
    # tol=0 pins the power iteration to exactly 20 passes (s12x20it).
    return gb.algorithms.pagerank(graph("rmat_s12"), max_iter=20, tol=0.0)


def run_masked_spgemm():
    """Masked SpGEMM feeding an ewise chain and scalar reductions.

    ``C<G> = G*G`` (two-hop counts restricted to existing edges, the
    triangle-counting shape) then row sums, an elementwise square, and a
    scalar total — the tail is exactly the ewise→reduce shape the fusion
    pass collapses.  A second, *masked* square restricted to one vertex's
    neighbourhood exercises mask sinking: the sparse mask prunes the dense
    inputs before the kernel instead of filtering after it.
    """
    g = graph("rmat_s12")
    n = g.nrows
    c = gb.Matrix.sparse(gb.FP64, n, n)
    ops.mxm(c, g, g, PLUS_TIMES, mask=g, desc=Descriptor(structural_mask=True))
    w = gb.Vector.sparse(gb.FP64, n)
    ops.reduce_to_vector(w, c, PLUS_MONOID)
    nbrs = gb.Vector.sparse(gb.FP64, n)
    ops.extract_col(nbrs, g, 0, desc=Descriptor(transpose_a=True))
    local = gb.Vector.sparse(gb.FP64, n)
    ops.ewise_mult(
        local, w, w, TIMES, mask=nbrs, desc=Descriptor(structural_mask=True)
    )
    around0 = float(ops.reduce(local, PLUS_MONOID))
    t = gb.Vector.sparse(gb.FP64, n)
    ops.ewise_mult(t, w, w, TIMES)
    total = float(ops.reduce(t, PLUS_MONOID))
    return w, total + around0


WORKLOADS = {
    "bfs_s13": run_bfs,
    "bfs_s13_directed": run_bfs_directed,
    "pagerank_s12_20it": run_pagerank,
    "masked_spgemm_s12": run_masked_spgemm,
}


def run_case(workload, mode):
    """One (workload, mode) cell; returns (result, us, launches, h2d)."""
    fresh_device_state()
    dev = get_device()
    with mode_ctx(mode), use_backend("cuda_sim"):
        result = WORKLOADS[workload]()
    prof = dev.profiler
    return result, prof.kernel_time_us, prof.launch_count, prof.h2d_bytes


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_table7_cell(benchmark, workload, mode):
    _, us, launches, h2d = run_case(workload, mode)
    benchmark.extra_info["simulated_us"] = round(us, 3)
    benchmark.extra_info["kernel_launches"] = launches
    benchmark.extra_info["h2d_bytes"] = round(h2d)
    benchmark.pedantic(
        lambda: run_case(workload, mode), rounds=1, iterations=1
    )


def _same(a, b):
    if isinstance(a, tuple):
        vec_a, tot_a = a
        vec_b, tot_b = b
        assert_same(vec_a, vec_b, exact=True)
        assert tot_a == tot_b
    else:
        assert_same(a, b, exact=True)


def test_table7_render(benchmark):
    def build():
        rows = []
        cells = {}
        metrics = {}
        for workload in WORKLOADS:
            results = {}
            for mode in MODES:
                result, us, launches, h2d = run_case(workload, mode)
                results[mode] = result
                cells[(workload, mode)] = (us, launches, h2d)
                metrics[f"{workload}.{mode}"] = {
                    "kernel_launches": launches,
                    "h2d_bytes": round(h2d),
                }
                rows.append(
                    [workload, mode, round(us, 2), launches, round(h2d)]
                )
            # Passes are schedule decisions only: every configuration is
            # bitwise the eager result.
            for mode in MODES[1:]:
                _same(results[mode], results["eager"])

        table = format_table(
            "Table 7 — lazy-optimizer ablation: modeled time / launches / H2D",
            ["workload", "mode", "sim time (us)", "launches", "h2d bytes"],
            rows,
        )
        save_table("table7_fusion_ablation", table)

        # Acceptance: >= 25% fewer launches and H2D bytes on both headline
        # pipelines with every pass enabled.
        reductions = {}
        for workload in ("bfs_s13", "pagerank_s12_20it"):
            _, el, eb = cells[(workload, "eager")]
            _, ll, lb = cells[(workload, "lazy")]
            reductions[workload] = {
                "kernel_launches": round(1.0 - ll / el, 3),
                "h2d_bytes": round(1.0 - lb / eb, 3),
            }
            assert ll <= el * (1.0 - MIN_REDUCTION), (workload, ll, el)
            assert lb <= eb * (1.0 - MIN_REDUCTION), (workload, lb, eb)

        # No ablation beats the full pipeline (each pass is monotone), and
        # every pass contributes somewhere: at least one workload gets
        # strictly worse on some counter when the pass is turned off.
        contributions = {}
        for p in PASSES:
            contrib = []
            for workload in WORKLOADS:
                us, launches, h2d = cells[(workload, f"no_{p}")]
                lus, llaunches, lh2d = cells[(workload, "lazy")]
                assert launches >= llaunches, (p, workload)
                assert h2d >= lh2d - 1e-6, (p, workload)
                assert us >= lus - 1e-6, (p, workload)
                # The cost model is deterministic, so any strict delta is a
                # stable, reproducible contribution — no noise floor needed.
                if launches > llaunches or h2d > lh2d + 1e-6 or us > lus + 1e-6:
                    contrib.append(workload)
            contributions[p] = contrib
            assert contrib, f"pass {p!r} shows no contribution anywhere"

        record = {
            "table": "table7_fusion_ablation",
            "modes": MODES,
            "workloads": sorted(WORKLOADS),
            "simulated_us": {
                f"{w}.{m}": round(cells[(w, m)][0], 3)
                for w in WORKLOADS
                for m in MODES
            },
            "lazy_vs_eager_reduction": reductions,
            "min_required_reduction": MIN_REDUCTION,
            "pass_contributions": contributions,
            "cuda_sim_metrics": metrics,
        }
        save_json("table7", record)
        return table

    benchmark.pedantic(build, rounds=1, iterations=1)
