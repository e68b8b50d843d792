# ``merge_overlay`` rounded untouched INT64 entries (hand-written).
#
# The merge concatenated ``base.values.astype(np.float64)`` with the delta
# and cast the result back to the base type, so any insert sent every base
# value through float64: an untouched INT64 entry of 2**53 + 1 came out as
# 2**53, though the merge promises that untouched base entries pass through
# bit-identically.  Base values now keep their own dtype and only the
# delta's values are cast.  A compaction that carries Aᵀ runs the same merge
# on the transpose, so it is checked there too.

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.backends.dispatch import use_backend
from repro.core.matrix import Matrix
from repro.streaming import DynamicGraph, EdgeBatch, merge_overlay
from repro.types import INT64

BIG = 2**53 + 1  # the smallest int64 float64 cannot hold


def _base() -> Matrix:
    return Matrix.from_lists([0, 1, 2], [1, 2, 0], [BIG, -BIG, 7], 3, 3, INT64)


def test_untouched_int64_entries_pass_through():
    base = _base().container
    _, _, values = merge_overlay(base, EdgeBatch.inserts([2], [2], [5.0]).normalized())
    assert values.dtype == np.int64
    assert values.tolist() == [BIG, -BIG, 7, 5]


@pytest.mark.parametrize("backend", ["cpu", "cuda_sim", "multi_sim"])
def test_carried_transpose_keeps_int64_entries(backend):
    m = _base()
    a = m.container
    with use_backend(backend):
        g = DynamicGraph(m)
        gb.get_backend(backend).transpose(a)  # Aᵀ held before the fold
        g.insert_edges([1], [1], [3.0])
        g.compact()
        t = a.known_transpose()
    assert t is not None and t is not a
    assert t.values.dtype == np.int64
    assert sorted(t.values.tolist()) == sorted([BIG, -BIG, 7, 3])
    want = a.transpose()
    assert t.indices.tolist() == want.indices.tolist()
    assert t.values.tolist() == want.values.tolist()
