# A descriptor transpose built Aᵀ twice (hand-written).
#
# ``mxv(..., desc=TRANSPOSE_A)`` reads ``A.cached_transpose()`` as its
# operand, and a push ``mxv`` (or pull ``vxm``) on that operand needs *its*
# transpose, which is A again.  The memo did not know where it came from,
# so cpu ran a second host counting sort and cuda_sim launched a second
# ``transpose_countsort`` even with A resident on the device.  The memo now
# keeps a weak back-link to A, which A drops when its version moves.

from __future__ import annotations

import gc
import weakref

import numpy as np

import repro as gb
from repro.backends.dispatch import use_backend
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.descriptor import TRANSPOSE_A
from repro.core.semiring import PLUS_TIMES
from repro.gpu.device import get_device, reset_device


def _graph():
    return gb.generators.rmat(6, 8, seed=3, directed=True)


def _transposed_push(backend: str, g, u):
    with use_backend(backend):
        w = gb.Vector.sparse(gb.FP64, g.nrows)
        ops.mxv(w, g, u, PLUS_TIMES, desc=TRANSPOSE_A, direction="push")
        return w.to_lists()


def _arrays(m: CSRMatrix):
    return m.indptr.tolist(), m.indices.tolist(), m.values.tolist()


def _transpose_launches() -> int:
    return sum(
        1 for r in get_device().profiler.records if r.name == "transpose_countsort"
    )


def test_cpu_builds_the_transpose_once():
    g = _graph()
    u = gb.Vector.from_lists([0, 3, 5], [1.0, 2.0, 3.0], g.nrows)
    before = CSRMatrix.transpose_builds
    got = _transposed_push("cpu", g, u)
    assert CSRMatrix.transpose_builds - before == 1
    assert got == _transposed_push("reference", _graph(), u)


def test_cuda_sim_reads_resident_a_without_a_transpose_launch():
    reset_device()
    g = _graph()
    u = gb.Vector.from_lists([0, 3, 5], [1.0, 2.0, 3.0], g.nrows)
    with use_backend("cuda_sim"):
        w = gb.Vector.sparse(gb.FP64, g.nrows)
        ops.mxv(w, g, u, PLUS_TIMES, direction="pull")  # uploads A
        w.to_lists()
    before = _transpose_launches()
    got = _transposed_push("cuda_sim", g, u)
    assert _transpose_launches() == before
    assert got == _transposed_push("reference", _graph(), u)


def test_back_link_is_dropped_when_a_moves():
    a = _graph().container
    memo = a.cached_transpose()
    assert memo.cached_transpose() is a
    old_t = memo.transpose()
    # In place: A keeps its identity and becomes a single entry (0, 0).
    a.install_arrays(
        np.r_[0, np.ones(a.nrows, np.int64)], np.array([0]), np.array([5.0])
    )
    tt = memo.cached_transpose()
    assert tt is not a
    assert _arrays(tt) == _arrays(old_t)


def test_back_link_does_not_keep_a_alive():
    a = _graph().container
    memo = a.cached_transpose()
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert memo.known_transpose() is None
