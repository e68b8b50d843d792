# The fill→ewise fusion dropped a fill its consumer still merged into
# (hand-written).
#
# ``assign_scalar(t, c); ewise_add(t, t, v, mask=m)`` records the ewise
# with the fill's pending value as its ``out`` input: with a mask or an
# accumulator the write merges into t's prior values.  The fusion checked
# only *later* nodes for readers of the fill, so it dropped the fill node
# and the flush failed with "input from assign_scalar_v consumed before its
# producer ran".  The fusion now declines when the consumer's out edge is
# the fill; the unmasked PageRank shape (out recorded as a concrete
# container) still fuses.

from __future__ import annotations

import pytest

import repro as gb
from repro.backends.dispatch import use_backend
from repro.core import operations as ops
from repro.core.assign import assign_scalar
from repro.core.operators import PLUS
from repro.gpu.device import get_device, reset_device
from repro.policy import policy

N = 8
V = gb.Vector.from_lists([1, 3, 5], [1.0, 2.0, 3.0], N)
M = gb.Vector.from_lists([1, 2, 3], [1.0, 0.0, 1.0], N)


def _run(lazy: str, mask, accum):
    with policy(lazy=lazy), use_backend("cuda_sim"):
        t = gb.Vector.sparse(gb.FP64, N)
        assign_scalar(t, 0.5)
        ops.ewise_add(t, t, V, PLUS, mask=mask, accum=accum)
        return t.to_lists()


@pytest.mark.parametrize(
    "mask, accum", [(M, None), (None, PLUS), (M, PLUS)], ids=["mask", "accum", "both"]
)
def test_write_into_the_fill_is_not_fused(mask, accum):
    assert _run("on", mask, accum) == _run("off", mask, accum)


def test_overwriting_the_fill_still_fuses():
    reset_device()
    assert _run("on", None, None) == _run("off", None, None)
    names = {r.name for r in get_device().profiler.records}
    assert "fill_ewise_fused_v" in names
