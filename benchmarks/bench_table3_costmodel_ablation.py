"""Table 3 (ablation) — what each cost-model term contributes.

Design-choice ablation from DESIGN.md: modeled kernel time with each cost
term (divergence, coalescing, occupancy) toggled off, for the two kernel
styles the backend uses, on a skewed R-MAT graph and a uniform grid.

Shape claims (the classic CSR-kernel-choice argument):

- the **warp-per-row** SpMV wastes lanes on *short* rows, so removing the
  divergence term helps the uniform degree-4 grid far more than the skewed
  R-MAT whose heavy rows keep warps busy;
- the **thread-per-row** push kernel serialises warps on *long* rows, so
  the same toggle helps the skewed R-MAT far more than the grid;
- removing coalescing always helps (sparse gathers are never coalesced);
- the ideal machine (all terms off) lower-bounds every configuration.
"""

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.bench.tables import format_table
from repro.bench.workloads import random_frontier
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.gpu.device import get_device, reset_device
from repro.policy import policy

from conftest import save_table

CONFIGS = [
    ("full model", dict()),
    ("no divergence", dict(enable_divergence=False)),
    ("no coalescing", dict(enable_coalescing=False)),
    ("no occupancy", dict(enable_occupancy=False)),
    (
        "ideal machine",
        dict(enable_divergence=False, enable_coalescing=False, enable_occupancy=False),
    ),
]

GRAPHS = {
    "rmat_s11": lambda: gb.generators.rmat(scale=11, edge_factor=8, seed=30),
    "grid_48": lambda: gb.generators.grid_2d(48, 48, seed=30),
}
KERNELS = ["warp-per-row (pull)", "thread-per-row (push)"]


def simulated_kernel_us(g, kernel: str, overrides) -> float:
    reset_device()
    get_backend("cuda_sim").evict_all()
    dev = get_device()
    for attr, val in overrides.items():
        setattr(dev.cost_model, attr, val)
    n = g.nrows
    if kernel.startswith("warp"):
        u = gb.Vector.full(1.0, n, gb.FP64)
        direction = "pull"
        lane = "vector"
    else:
        u = random_frontier(n, n, seed=4)  # dense frontier: worst-case push
        direction = "push"
        lane = "scalar"
    g.csc()  # pre-built column view so push pays no transpose
    # This table ablates the cost model *per kernel style*; pin the lane so
    # the load balancer doesn't swap styles out from under the claim.
    with policy(lanes=lane), use_backend("cuda_sim"):
        w = gb.Vector.sparse(gb.FP64, n)
        ops.mxv(w, g, u, PLUS_TIMES, direction=direction)
    return dev.profiler.kernel_time_us


@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("config", [name for name, _ in CONFIGS])
def test_table3_config(benchmark, graph, kernel, config):
    g = GRAPHS[graph]()
    overrides = dict(CONFIGS)[config]
    us = simulated_kernel_us(g, kernel, overrides)
    benchmark.extra_info["simulated_us"] = round(us, 3)
    benchmark.pedantic(
        lambda: simulated_kernel_us(g, kernel, overrides), rounds=1, iterations=1
    )


def test_table3_render(benchmark):
    def build():
        rows = []
        results = {}
        graphs = {name: gf() for name, gf in GRAPHS.items()}
        for gname, g in graphs.items():
            for kernel in KERNELS:
                for cname, overrides in CONFIGS:
                    us = simulated_kernel_us(g, kernel, overrides)
                    results[(gname, kernel, cname)] = us
                    rows.append([gname, kernel, cname, round(us, 2)])
        table = format_table(
            "Table 3 — cost-model ablation: modeled kernel time (µs)",
            ["graph", "kernel", "model config", "sim time"],
            rows,
        )
        save_table("table3_costmodel_ablation", table)

        def gain(gname, kernel):
            return (
                results[(gname, kernel, "full model")]
                / results[(gname, kernel, "no divergence")]
            )

        for gname in graphs:
            for kernel in KERNELS:
                full = results[(gname, kernel, "full model")]
                assert results[(gname, kernel, "ideal machine")] <= full
                assert results[(gname, kernel, "no coalescing")] < full
        # Warp-per-row: lane waste dominates on the low-degree uniform grid.
        assert gain("grid_48", "warp-per-row (pull)") > gain(
            "rmat_s11", "warp-per-row (pull)"
        )
        # Thread-per-row: serialisation dominates on the skewed R-MAT.
        assert gain("rmat_s11", "thread-per-row (push)") > gain(
            "grid_48", "thread-per-row (push)"
        )
        return table

    benchmark.pedantic(build, rounds=1, iterations=1)
