"""eWiseAdd / eWiseMult / apply / select / reduce semantics on all backends."""

import numpy as np
import pytest

import repro as gb
from repro.core import operations as ops
from repro.core.monoid import MAX_MONOID, MIN_MONOID, PLUS_MONOID
from repro.core.operators import (
    ABS,
    AINV,
    DIV,
    GT,
    MIN,
    MINUS,
    PLUS,
    ROWINDEX,
    TIMES,
    TRIL,
    VALUEGT,
)

from .conftest import random_dense_matrix, random_dense_vector


class TestEwiseAddVector:
    def test_union_semantics(self, backend):
        u = gb.Vector.from_lists([0, 1], [1.0, 2.0], 4)
        v = gb.Vector.from_lists([1, 2], [10.0, 20.0], 4)
        w = gb.Vector.sparse(gb.FP64, 4)
        ops.ewise_add(w, u, v, PLUS)
        assert w.to_lists() == ([0, 1, 2], [1.0, 12.0, 20.0])

    def test_minus_is_not_commutative(self, backend):
        u = gb.Vector.from_lists([0], [5.0], 2)
        v = gb.Vector.from_lists([0], [3.0], 2)
        w = gb.Vector.sparse(gb.FP64, 2)
        ops.ewise_add(w, u, v, MINUS)
        assert w.get(0) == 2.0

    def test_one_sided_passthrough_unmodified(self, backend):
        # eWiseAdd with MINUS: entries present on one side pass through
        # without negation (union semantics, not arithmetic subtraction).
        u = gb.Vector.from_lists([0], [5.0], 3)
        v = gb.Vector.from_lists([2], [3.0], 3)
        w = gb.Vector.sparse(gb.FP64, 3)
        ops.ewise_add(w, u, v, MINUS)
        assert w.get(0) == 5.0 and w.get(2) == 3.0

    def test_size_mismatch(self, backend):
        with pytest.raises(gb.DimensionMismatchError):
            ops.ewise_add(
                gb.Vector.sparse(gb.FP64, 3),
                gb.Vector.sparse(gb.FP64, 3),
                gb.Vector.sparse(gb.FP64, 4),
                PLUS,
            )

    def test_matches_dense(self, backend, rng):
        a = random_dense_vector(rng, 20)
        b = random_dense_vector(rng, 20)
        w = gb.Vector.sparse(gb.FP64, 20)
        ops.ewise_add(w, gb.Vector.from_dense(a), gb.Vector.from_dense(b), PLUS)
        np.testing.assert_allclose(w.to_dense(), a + b, atol=1e-12)


class TestEwiseMultVector:
    def test_intersection_semantics(self, backend):
        u = gb.Vector.from_lists([0, 1], [2.0, 3.0], 4)
        v = gb.Vector.from_lists([1, 2], [10.0, 20.0], 4)
        w = gb.Vector.sparse(gb.FP64, 4)
        ops.ewise_mult(w, u, v, TIMES)
        assert w.to_lists() == ([1], [30.0])

    def test_div_order(self, backend):
        u = gb.Vector.from_lists([0], [6.0], 1)
        v = gb.Vector.from_lists([0], [3.0], 1)
        w = gb.Vector.sparse(gb.FP64, 1)
        ops.ewise_mult(w, u, v, DIV)
        assert w.get(0) == 2.0

    def test_comparison_gives_bool(self, backend):
        u = gb.Vector.from_lists([0, 1], [5.0, 1.0], 2)
        v = gb.Vector.from_lists([0, 1], [3.0, 3.0], 2)
        w = gb.Vector.sparse(gb.BOOL, 2)
        ops.ewise_mult(w, u, v, GT)
        assert w.get(0) == True and w.get(1) == False  # noqa: E712

    def test_empty_intersection(self, backend):
        u = gb.Vector.from_lists([0], [1.0], 3)
        v = gb.Vector.from_lists([2], [1.0], 3)
        w = gb.Vector.sparse(gb.FP64, 3)
        ops.ewise_mult(w, u, v, TIMES)
        assert w.nvals == 0


class TestEwiseMatrix:
    def test_add_matches_dense(self, backend, rng):
        A = random_dense_matrix(rng, 5, 6)
        B = random_dense_matrix(rng, 5, 6)
        c = gb.Matrix.sparse(gb.FP64, 5, 6)
        ops.ewise_add(c, gb.Matrix.from_dense(A), gb.Matrix.from_dense(B), PLUS)
        np.testing.assert_allclose(c.to_dense(), A + B, atol=1e-12)

    def test_mult_intersection_count(self, backend):
        a = gb.Matrix.from_lists([0, 0], [0, 1], [1.0, 2.0], 2, 2)
        b = gb.Matrix.from_lists([0, 1], [1, 1], [3.0, 4.0], 2, 2)
        c = gb.Matrix.sparse(gb.FP64, 2, 2)
        ops.ewise_mult(c, a, b, TIMES)
        assert c.nvals == 1 and c.get(0, 1) == 6.0

    def test_shape_mismatch(self, backend):
        with pytest.raises(gb.DimensionMismatchError):
            ops.ewise_add(
                gb.Matrix.sparse(gb.FP64, 2, 2),
                gb.Matrix.sparse(gb.FP64, 2, 2),
                gb.Matrix.sparse(gb.FP64, 3, 2),
                PLUS,
            )

    def test_min_union(self, backend):
        a = gb.Matrix.from_lists([0], [0], [5.0], 1, 2)
        b = gb.Matrix.from_lists([0, 0], [0, 1], [3.0, 9.0], 1, 2)
        c = gb.Matrix.sparse(gb.FP64, 1, 2)
        ops.ewise_add(c, a, b, MIN)
        assert c.get(0, 0) == 3.0 and c.get(0, 1) == 9.0


class TestApply:
    def test_unary_vector(self, backend):
        u = gb.Vector.from_lists([1, 3], [-2.0, 4.0], 5)
        w = gb.Vector.sparse(gb.FP64, 5)
        ops.apply(w, u, ABS)
        assert w.to_lists() == ([1, 3], [2.0, 4.0])

    def test_unary_matrix(self, backend):
        a = gb.Matrix.from_lists([0], [1], [-3.0], 2, 2)
        c = gb.Matrix.sparse(gb.FP64, 2, 2)
        ops.apply(c, a, AINV)
        assert c.get(0, 1) == 3.0

    def test_bind_first(self, backend):
        u = gb.Vector.from_lists([0], [4.0], 1)
        w = gb.Vector.sparse(gb.FP64, 1)
        ops.apply(w, u, MINUS, bind_first=10.0)
        assert w.get(0) == 6.0  # 10 - 4

    def test_bind_second(self, backend):
        u = gb.Vector.from_lists([0], [4.0], 1)
        w = gb.Vector.sparse(gb.FP64, 1)
        ops.apply(w, u, MINUS, bind_second=10.0)
        assert w.get(0) == -6.0  # 4 - 10

    def test_bind_requires_exactly_one(self, backend):
        u = gb.Vector.from_lists([0], [4.0], 1)
        w = gb.Vector.sparse(gb.FP64, 1)
        with pytest.raises(gb.InvalidValueError):
            ops.apply(w, u, MINUS)
        with pytest.raises(gb.InvalidValueError):
            ops.apply(w, u, MINUS, bind_first=1.0, bind_second=2.0)

    def test_index_op_apply(self, backend):
        u = gb.Vector.from_lists([2, 4], [1.0, 1.0], 6)
        w = gb.Vector.sparse(gb.INT64, 6)
        ops.apply(w, u, ROWINDEX, thunk=0)
        assert w.to_lists() == ([2, 4], [2, 4])

    def test_empty_apply(self, backend):
        w = gb.Vector.sparse(gb.FP64, 3)
        ops.apply(w, gb.Vector.sparse(gb.FP64, 3), ABS)
        assert w.nvals == 0


class TestSelect:
    def test_select_value_predicate_vector(self, backend):
        u = gb.Vector.from_lists([0, 1, 2], [1.0, 5.0, 3.0], 3)
        w = gb.Vector.sparse(gb.FP64, 3)
        ops.select(w, u, VALUEGT, thunk=2.0)
        assert w.to_lists() == ([1, 2], [5.0, 3.0])

    def test_select_tril_matrix(self, backend):
        a = gb.Matrix.from_dense(np.arange(1, 10, dtype=float).reshape(3, 3))
        c = gb.Matrix.sparse(gb.FP64, 3, 3)
        ops.select(c, a, TRIL, thunk=-1)
        np.testing.assert_array_equal(c.to_dense(), np.tril(a.to_dense(), -1))

    def test_select_keeps_nothing(self, backend):
        u = gb.Vector.from_lists([0], [1.0], 2)
        w = gb.Vector.sparse(gb.FP64, 2)
        ops.select(w, u, VALUEGT, thunk=100.0)
        assert w.nvals == 0


class TestReduce:
    def test_vector_sum(self, backend):
        u = gb.Vector.from_lists([0, 2], [1.5, 2.5], 4)
        assert ops.reduce(u, PLUS_MONOID) == 4.0

    def test_vector_empty_gives_identity(self, backend):
        u = gb.Vector.sparse(gb.FP64, 4)
        assert ops.reduce(u, PLUS_MONOID) == 0.0
        assert ops.reduce(u, MIN_MONOID) == np.inf

    def test_matrix_sum(self, backend, rng):
        A = random_dense_matrix(rng, 5, 5)
        assert abs(ops.reduce(gb.Matrix.from_dense(A), PLUS_MONOID) - A.sum()) < 1e-9

    def test_matrix_max(self, backend):
        a = gb.Matrix.from_lists([0, 1], [0, 1], [3.0, 7.0], 2, 2)
        assert ops.reduce(a, MAX_MONOID) == 7.0

    def test_reduce_with_scalar_accum(self, backend):
        u = gb.Vector.from_lists([0], [5.0], 2)
        s = gb.Scalar(gb.FP64, 10.0)
        out = ops.reduce(u, PLUS_MONOID, accum=PLUS, out=s)
        assert out == 15.0 and s.value == 15.0

    def test_reduce_rows(self, backend):
        a = gb.Matrix.from_dense(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]))
        w = gb.Vector.sparse(gb.FP64, 3)
        ops.reduce_to_vector(w, a, PLUS_MONOID)
        assert w.to_lists() == ([0, 2], [3.0, 7.0])  # empty row -> no entry

    def test_reduce_cols_via_transpose(self, backend):
        a = gb.Matrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = gb.Vector.sparse(gb.FP64, 2)
        ops.reduce_to_vector(w, a, PLUS_MONOID, desc=gb.TRANSPOSE_A)
        assert w.to_lists() == ([0, 1], [4.0, 6.0])


def test_fused_ewise_apply_rejects_matrix_output():
    from repro.core.fused import ewise_apply
    from repro.exceptions import InvalidValueError

    a = gb.Matrix.from_dense(np.eye(3))
    out = gb.Matrix.sparse(gb.FP64, 3, 3)
    with pytest.raises(InvalidValueError, match="Vector"):
        ewise_apply(out, a, a, MINUS, ABS)
