"""The frontend merges against a dense NumPy model of the spec.

Every backend, the reference included, computes only the result ``T``;
the write pipeline (accumulate, mask, replace), assign's region merge and
eWiseUnion run in shared frontend code over row-major keys.  The
differential fuzzer compares backends with each other, so it cannot see a
defect there.  These properties compare the merges with a dense model
written here from the semantics instead:

- write pipeline: ``Z = accum(C, T)`` over the union (``Z = T`` without an
  accumulator); mask-true positions take Z, mask-false positions keep C
  unless ``replace``.  A valued mask fires where its entry is nonzero, a
  structural one wherever it has an entry; no mask admits every position,
  complemented or not;
- assign (``GxB_subassign``): the mask is C-shaped; inside the region
  ``I × J`` mask-true positions are rewritten by the source (or, with an
  accumulator, merged into), and ``replace`` clears mask-false region
  positions; nothing outside the region changes;
- eWiseUnion: the operator applies at every union position, with
  ``alpha`` / ``beta`` standing in for a missing left / right entry.

The vector forms run through the same merges over the same keys: a vector
of size n is the 1×n matrix, so the same models check them.  Shapes
include empty matrices, 0×n / n×0 and size-0 vectors.  Everything is
INT64, so the model is exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.core import operations as ops
from repro.core.assign import assign, assign_scalar
from repro.core.descriptor import Descriptor
from repro.core.matrix import Matrix
from repro.core.operators import MAX, MIN, MINUS, PLUS
from repro.core.semiring import PLUS_TIMES
from repro.core.union_op import ewise_union
from repro.core.vector import Vector
from repro.types import INT64

#: Operator -> the same function on dense int64 arrays.
DENSE_OPS = {"PLUS": np.add, "MINUS": np.subtract, "MIN": np.minimum, "MAX": np.maximum}
OPS = {"PLUS": PLUS, "MINUS": MINUS, "MIN": MIN, "MAX": MAX}


@pytest.fixture(autouse=True)
def _reference_backend():
    with gb.use_backend("reference"):
        yield


# ---------------------------------------------------------------------------
# Strategies and conversions
# ---------------------------------------------------------------------------


@st.composite
def dense_pair(draw, nrows: int, ncols: int, lo: int = -2, hi: int = 3):
    """``(present, values)``: a random sparse INT64 matrix in dense form."""
    cells = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(lo, hi)),
            min_size=nrows * ncols,
            max_size=nrows * ncols,
        )
    )
    present = np.array([c[0] for c in cells], dtype=bool).reshape(nrows, ncols)
    values = np.array([c[1] for c in cells], dtype=np.int64).reshape(nrows, ncols)
    values[~present] = 0
    return present, values


@st.composite
def write_args(draw, nrows: int, ncols: int):
    """C, an optional mask (values 0..2, so valued masks skip some
    entries), an accumulator name or None, and the descriptor flags."""
    c = draw(dense_pair(nrows, ncols))
    mask = draw(st.one_of(st.none(), dense_pair(nrows, ncols, 0, 2)))
    accum = draw(st.one_of(st.none(), st.sampled_from(sorted(DENSE_OPS))))
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return c, mask, accum, flags


def to_matrix(pair) -> Matrix:
    present, values = pair
    rows, cols = np.nonzero(present)
    return Matrix.from_lists(
        rows, cols, values[rows, cols], present.shape[0], present.shape[1], INT64
    )


def to_vector(pair) -> Vector:
    """A 1×n dense pair as a size-n vector."""
    present, values = pair
    (idx,) = np.nonzero(present[0])
    return Vector.from_lists(idx, values[0, idx], present.shape[1], INT64)


def to_pair(m):
    """Dense form of a matrix, or of a vector as its 1×n matrix."""
    if isinstance(m, Vector):
        cols, vals = m.to_lists()
        rows, shape = [0] * len(cols), (1, m.size)
    else:
        rows, cols, vals = m.to_lists()
        shape = m.shape
    present = np.zeros(shape, dtype=bool)
    values = np.zeros(shape, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    present[rows, cols] = True
    values[rows, cols] = np.asarray(vals, dtype=np.int64)
    return present, values


def assert_same(got, expected) -> None:
    assert got.type is INT64
    gp, gv = to_pair(got)
    ep, ev = expected
    np.testing.assert_array_equal(gp, ep)
    np.testing.assert_array_equal(gv, np.where(ep, ev, 0))


def descriptor(flags) -> Descriptor:
    structural, complement, replace = flags
    return Descriptor(
        structural_mask=structural, complement_mask=complement, replace=replace
    )


# ---------------------------------------------------------------------------
# The dense model
# ---------------------------------------------------------------------------


def effective_mask(mask, shape, flags):
    structural, complement, _ = flags
    if mask is None:
        return np.ones(shape, dtype=bool)
    present, values = mask
    fires = present if structural else present & (values != 0)
    return ~fires if complement else fires


def write_model(c, t, mask, accum, flags):
    """``C<mask> accum= T`` with ``replace`` = flags[2]."""
    pc, vc = c
    pt, vt = t
    if accum is None:
        pz, vz = pt, vt
    else:
        pz = pc | pt
        vz = np.where(pc & pt, DENSE_OPS[accum](vc, vt), np.where(pc, vc, vt))
    eff = effective_mask(mask, pc.shape, flags)
    kept = pc & ~eff & (not flags[2])
    return (eff & pz) | kept, np.where(eff, vz, vc)


def assign_model(c, t, region, mask, accum, flags):
    """``C(I, J)<mask> accum= T`` (subassign); ``t`` is C-shaped and lies
    inside ``region``."""
    pc, vc = c
    pt, vt = t
    eff = effective_mask(mask, pc.shape, flags)
    pt = pt & eff
    if accum is None:
        drop = pc & region & eff
    else:
        drop = pc & pt
        vt = np.where(drop, DENSE_OPS[accum](vc, vt), vt)
    if flags[2]:
        drop = drop | (pc & region & ~eff)
    return (pc & ~drop) | pt, np.where(pt, vt, vc)


def union_model(a, b, op):
    (pa, va), (pb, vb) = a, b
    both = DENSE_OPS[op](va, vb)
    return pa | pb, np.where(pa & pb, both, np.where(pa, va, vb))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


dims = st.integers(0, 4)


@st.composite
def region(draw, extent: int):
    """Distinct indices of a region axis in random order, or None (all)."""
    if draw(st.booleans()):
        return None
    picks = draw(st.permutations(range(extent)))
    return list(picks[: draw(st.integers(0, extent))])


def region_dense(rows, cols, shape):
    r = np.arange(shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    s = np.arange(shape[1]) if cols is None else np.asarray(cols, dtype=np.int64)
    return r, s


class TestWritePipeline:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), dims, dims, dims)
    def test_mxm(self, data, n, k, m):
        c, mask, accum, flags = data.draw(write_args(n, m))
        a = data.draw(dense_pair(n, k))
        b = data.draw(dense_pair(k, m))
        pt = (a[0].astype(np.int64) @ b[0].astype(np.int64)) > 0
        expected = write_model(c, (pt, a[1] @ b[1]), mask, accum, flags)
        out = to_matrix(c)
        ops.mxm(
            out, to_matrix(a), to_matrix(b), PLUS_TIMES,
            mask=None if mask is None else to_matrix(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), dims, dims, st.sampled_from(sorted(DENSE_OPS)))
    def test_ewise_add(self, data, n, m, op):
        c, mask, accum, flags = data.draw(write_args(n, m))
        a = data.draw(dense_pair(n, m))
        b = data.draw(dense_pair(n, m))
        expected = write_model(c, union_model(a, b, op), mask, accum, flags)
        out = to_matrix(c)
        ops.ewise_add(
            out, to_matrix(a), to_matrix(b), OPS[op],
            mask=None if mask is None else to_matrix(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(), dims, dims, st.sampled_from(sorted(DENSE_OPS)),
        st.integers(-2, 3), st.integers(-2, 3),
    )
    def test_ewise_union(self, data, n, m, op, alpha, beta):
        c, mask, accum, flags = data.draw(write_args(n, m))
        (pa, va), (pb, vb) = data.draw(dense_pair(n, m)), data.draw(dense_pair(n, m))
        t = (pa | pb, DENSE_OPS[op](np.where(pa, va, alpha), np.where(pb, vb, beta)))
        expected = write_model(c, t, mask, accum, flags)
        out = to_matrix(c)
        ewise_union(
            out, to_matrix((pa, va)), alpha, to_matrix((pb, vb)), beta, OPS[op],
            mask=None if mask is None else to_matrix(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)


class TestAssign:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), dims, dims)
    def test_assign(self, data, n, m):
        c, mask, accum, flags = data.draw(write_args(n, m))
        rows = data.draw(region(n))
        cols = data.draw(region(m))
        r, s = region_dense(rows, cols, (n, m))
        src = data.draw(dense_pair(r.size, s.size))
        inside = np.zeros((n, m), dtype=bool)
        inside[np.ix_(r, s)] = True
        pt = np.zeros((n, m), dtype=bool)
        vt = np.zeros((n, m), dtype=np.int64)
        pt[np.ix_(r, s)] = src[0]
        vt[np.ix_(r, s)] = src[1]
        expected = assign_model(c, (pt, vt), inside, mask, accum, flags)
        out = to_matrix(c)
        assign(
            out, to_matrix(src), rows, cols,
            mask=None if mask is None else to_matrix(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), dims, dims, st.integers(-2, 3))
    def test_assign_scalar(self, data, n, m, value):
        c, mask, accum, flags = data.draw(write_args(n, m))
        rows = data.draw(region(n))
        cols = data.draw(region(m))
        r, s = region_dense(rows, cols, (n, m))
        inside = np.zeros((n, m), dtype=bool)
        inside[np.ix_(r, s)] = True
        t = (inside, np.full((n, m), value, dtype=np.int64))
        expected = assign_model(c, t, inside, mask, accum, flags)
        out = to_matrix(c)
        assign_scalar(
            out, value, rows, cols,
            mask=None if mask is None else to_matrix(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)


# ---------------------------------------------------------------------------
# Vector forms: the same models over 1×n
# ---------------------------------------------------------------------------


sizes = st.integers(0, 8)


def _vec_or_none(pair):
    return None if pair is None else to_vector(pair)


class TestVectorForms:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), sizes, st.sampled_from(sorted(DENSE_OPS)))
    def test_ewise_add(self, data, n, op):
        c, mask, accum, flags = data.draw(write_args(1, n))
        a = data.draw(dense_pair(1, n))
        b = data.draw(dense_pair(1, n))
        expected = write_model(c, union_model(a, b, op), mask, accum, flags)
        out = to_vector(c)
        ops.ewise_add(
            out, to_vector(a), to_vector(b), OPS[op],
            mask=_vec_or_none(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(), sizes, st.sampled_from(sorted(DENSE_OPS)),
        st.integers(-2, 3), st.integers(-2, 3),
    )
    def test_ewise_union(self, data, n, op, alpha, beta):
        c, mask, accum, flags = data.draw(write_args(1, n))
        (pa, va), (pb, vb) = data.draw(dense_pair(1, n)), data.draw(dense_pair(1, n))
        t = (pa | pb, DENSE_OPS[op](np.where(pa, va, alpha), np.where(pb, vb, beta)))
        expected = write_model(c, t, mask, accum, flags)
        out = to_vector(c)
        ewise_union(
            out, to_vector((pa, va)), alpha, to_vector((pb, vb)), beta, OPS[op],
            mask=_vec_or_none(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), sizes)
    def test_assign(self, data, n):
        c, mask, accum, flags = data.draw(write_args(1, n))
        idx = data.draw(region(n))
        _, r = region_dense(None, idx, (1, n))
        src = data.draw(dense_pair(1, r.size))
        inside = np.zeros((1, n), dtype=bool)
        inside[0, r] = True
        pt = np.zeros((1, n), dtype=bool)
        vt = np.zeros((1, n), dtype=np.int64)
        pt[0, r] = src[0][0]
        vt[0, r] = src[1][0]
        expected = assign_model(c, (pt, vt), inside, mask, accum, flags)
        out = to_vector(c)
        assign(
            out, to_vector(src), idx,
            mask=_vec_or_none(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), sizes, st.integers(-2, 3))
    def test_assign_scalar(self, data, n, value):
        c, mask, accum, flags = data.draw(write_args(1, n))
        idx = data.draw(region(n))
        _, r = region_dense(None, idx, (1, n))
        inside = np.zeros((1, n), dtype=bool)
        inside[0, r] = True
        t = (inside, np.full((1, n), value, dtype=np.int64))
        expected = assign_model(c, t, inside, mask, accum, flags)
        out = to_vector(c)
        assign_scalar(
            out, value, idx,
            mask=_vec_or_none(mask),
            accum=None if accum is None else OPS[accum],
            desc=descriptor(flags),
        )
        assert_same(out, expected)
