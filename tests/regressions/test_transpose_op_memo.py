# ``transpose`` built a second Aᵀ beside the memo (hand-written).
#
# ``ops.transpose(C, A)`` asks the backend for Aᵀ when none is known.  The
# simulated backends built a fresh one (cuda_sim launched
# ``transpose_countsort`` on ``a.transpose()``, multi_sim sorted A's row
# shards and returned ``a.transpose()``), so a pull ``vxm`` on the same
# directed matrix afterwards found no memo and built Aᵀ again: two host
# counting sorts, two ``transpose_countsort`` launches on cuda_sim and four
# ``transpose_shard`` launches at P=2.  The op now returns the container
# memo through the same device build the products use.

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.generators.rmat import rmat
from repro.gpu.device import get_device, reset_device


def _backend(spec: str):
    if spec == "multi_sim:2":
        ms = get_backend("multi_sim").configure(nparts=2, splitter="equal_rows")
        ms.reset()
        return ms, list(ms.cluster.devices)
    reset_device()
    be = get_backend(spec)
    if spec == "cuda_sim":
        be.evict_all()
        return be, [get_device()]
    return be, []


@pytest.mark.parametrize(
    "spec, launches",
    [("cpu", 0), ("cuda_sim", 1), ("multi_sim:2", 2)],
)
def test_transpose_then_pull_vxm_builds_the_transpose_once(spec, launches):
    a = rmat(7, 8, seed=0, directed=True)
    u = gb.Vector.full(1.0, a.nrows, gb.FP64)
    be, devices = _backend(spec)
    before = CSRMatrix.transpose_builds
    with use_backend(be):
        c = gb.Matrix.sparse(a.type, a.ncols, a.nrows)
        ops.transpose(c, a)
        w = gb.Vector.sparse(gb.FP64, a.ncols)
        ops.vxm(w, u, a, PLUS_TIMES, direction="pull")
        got = w.to_lists()
    assert CSRMatrix.transpose_builds - before == 1
    names = [r.name for d in devices for r in d.profiler.records if r.kind == "kernel"]
    assert sum(n in ("transpose_countsort", "transpose_shard") for n in names) == launches
    ref = rmat(7, 8, seed=0, directed=True)
    with use_backend("reference"):
        want_c = gb.Matrix.sparse(ref.type, ref.ncols, ref.nrows)
        ops.transpose(want_c, ref)
        want_w = gb.Vector.sparse(gb.FP64, ref.ncols)
        ops.vxm(want_w, u, ref, PLUS_TIMES)
    assert c.to_lists() == want_c.to_lists()
    assert got == want_w.to_lists()
