# A transpose cached on the matrix handle outlived an in-place swap
# (hand-written).
#
# ``Matrix`` used to keep its own column view (``Matrix._csc``) beside the
# container's version-stamped transpose memo, and handed it to the backends
# as a ``csc=`` argument.  ``CSRMatrix.install_arrays`` swaps a container's
# arrays in place and bumps its version, which drops the memo but not the
# handle's copy; only ``DynamicGraph.compact`` remembered to clear that.  So
# after ``m.csc()`` and an ``install_arrays`` on ``m.container``, a push
# ``mxv`` on cpu multiplied by the old Aᵀ, while pull, cuda_sim and
# reference read the new arrays.  Aᵀ now lives only in the container's
# memo, so every backend and direction sees the swap.

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.backends.dispatch import use_backend
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES


def _swapped_product(backend: str, direction: str):
    m = gb.Matrix.from_lists([0], [1], [1.0], 2, 2)
    m.csc()  # a column view taken before the swap
    # In place: the container keeps its identity, A becomes {(1, 1): 2.0}.
    m.container.install_arrays(
        np.array([0, 0, 1], np.int64), np.array([1], np.int64), np.array([2.0])
    )
    u = gb.Vector.from_lists([1], [1.0], 2)
    with use_backend(backend):
        w = gb.Vector.sparse(gb.FP64, 2)
        ops.mxv(w, m, u, PLUS_TIMES, direction=direction)
        return w.to_lists()


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_every_backend_reads_the_swapped_arrays(direction):
    out = {b: _swapped_product(b, direction) for b in ("cpu", "cuda_sim", "reference")}
    # The old A would give ([0], [1.0]).
    assert out == {b: ([1], [2.0]) for b in out}
