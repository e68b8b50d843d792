# Aᵀ shards that no device holds any more (hand-written).
#
# multi_sim memoises the row-sharded Aᵀ its push mxv and pull vxm read.  A
# memo hit used to mark the shards resident on every device whatever the
# devices held, so after ``evict_all()`` or ``reset()`` a pull vxm on a
# directed R-MAT at P=2 launched no ``transpose_shard``, ran no
# ``all_to_all`` and uploaded only ``u``, while cuda_sim re-launched its
# transpose.  The memo is now read only while every device still holds its
# shard; otherwise the build is charged again.

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.generators.rmat import rmat


def _pull_vxm(ms, a, u):
    """Per-device kernel names and H2D bytes of one pull vxm, plus the
    cluster's all_to_all count, charged by this call alone."""
    seen = [len(d.profiler.records) for d in ms.cluster.devices]
    shuffles = ms.metrics()["comm"]["counts"].get("all_to_all", 0)
    with use_backend(ms):
        w = gb.Vector.sparse(gb.FP64, a.ncols)
        ops.vxm(w, u, a, PLUS_TIMES, direction="pull")
        w.nvals
    per_device = [
        (
            sorted(r.name for r in d.profiler.records[n:] if r.kind == "kernel"),
            sum(r.bytes for r in d.profiler.records[n:] if r.kind == "h2d"),
        )
        for d, n in zip(ms.cluster.devices, seen)
    ]
    return per_device, ms.metrics()["comm"]["counts"].get("all_to_all", 0) - shuffles


@pytest.mark.parametrize("forget", ["evict_all", "reset"])
def test_pull_vxm_rebuilds_transpose_shards_no_device_holds(forget):
    a = rmat(7, 8, seed=0, directed=True)
    u = gb.Vector.full(1.0, a.nrows, gb.FP64)
    ms = get_backend("multi_sim").configure(nparts=2, splitter="equal_rows")
    ms.reset()
    first = _pull_vxm(ms, a, u)
    assert first[1] == 1
    assert all("transpose_shard" in names for names, _ in first[0])
    getattr(ms, forget)()
    assert _pull_vxm(ms, a, u) == first
