"""Frontend Vector and Matrix objects: construction, mutation, export."""

import numpy as np
import pytest

import repro as gb
from repro.core.operators import PLUS


class TestVectorObject:
    def test_sparse_ctor(self):
        v = gb.Vector.sparse(gb.FP64, 10)
        assert v.size == 10 and v.nvals == 0 and v.type is gb.FP64

    def test_from_lists_infer_type(self):
        v = gb.Vector.from_lists([0], [1.5], 3)
        assert v.type is gb.FP64

    def test_from_lists_int_type(self):
        v = gb.Vector.from_lists([0], [1], 3)
        assert v.type.is_integral

    def test_build_on_empty(self):
        v = gb.Vector.sparse(gb.FP64, 4)
        v.build([3, 1], [3.0, 1.0])
        assert v.to_lists() == ([1, 3], [1.0, 3.0])

    def test_build_on_nonempty_raises(self):
        v = gb.Vector.from_lists([0], [1.0], 3)
        with pytest.raises(gb.OutputNotEmptyError):
            v.build([1], [2.0])

    def test_build_with_dup(self):
        v = gb.Vector.sparse(gb.FP64, 4)
        v.build([1, 1], [1.0, 2.0], dup=PLUS)
        assert v.get(1) == 3.0

    def test_set_get_item(self):
        v = gb.Vector.sparse(gb.FP64, 3)
        v[1] = 5.0
        assert v[1] == 5.0
        assert 1 in v and 0 not in v

    def test_getitem_missing_raises(self):
        v = gb.Vector.sparse(gb.FP64, 3)
        with pytest.raises(gb.EmptyObjectError):
            _ = v[0]

    def test_set_element_overwrites(self):
        v = gb.Vector.from_lists([1], [1.0], 3)
        v.set_element(1, 9.0)
        assert v.get(1) == 9.0 and v.nvals == 1

    def test_set_element_bounds(self):
        v = gb.Vector.sparse(gb.FP64, 3)
        with pytest.raises(gb.IndexOutOfBoundsError):
            v.set_element(3, 1.0)

    def test_remove_element(self):
        v = gb.Vector.from_lists([0, 1], [1.0, 2.0], 3)
        v.remove_element(0)
        assert v.nvals == 1 and 0 not in v
        v.remove_element(2)  # absent: no-op
        assert v.nvals == 1

    def test_clear(self):
        v = gb.Vector.from_lists([0], [1.0], 3)
        v.clear()
        assert v.nvals == 0 and v.size == 3

    def test_dup_independent(self):
        v = gb.Vector.from_lists([0], [1.0], 3)
        d = v.dup()
        d.set_element(0, 9.0)
        assert v.get(0) == 1.0

    def test_resize_shrink_drops(self):
        v = gb.Vector.from_lists([0, 4], [1.0, 5.0], 5)
        v.resize(3)
        assert v.size == 3 and v.nvals == 1

    def test_resize_grow(self):
        v = gb.Vector.from_lists([0], [1.0], 2)
        v.resize(10)
        assert v.size == 10 and v.get(0) == 1.0

    def test_full(self):
        v = gb.Vector.full(2.5, 4)
        assert v.nvals == 4 and v.get(3) == 2.5

    def test_equality(self):
        a = gb.Vector.from_lists([0], [1.0], 3)
        b = gb.Vector.from_lists([0], [1.0], 3)
        c = gb.Vector.from_lists([1], [1.0], 3)
        assert a == b and a != c

    def test_len(self):
        assert len(gb.Vector.sparse(gb.FP64, 7)) == 7


class TestMatrixObject:
    def test_sparse_ctor(self):
        m = gb.Matrix.sparse(gb.INT64, 3, 4)
        assert m.shape == (3, 4) and m.nvals == 0

    def test_identity(self):
        m = gb.Matrix.identity(3, value=2.0)
        assert m.nvals == 3 and m.get(1, 1) == 2.0 and m.get(0, 1) is None

    def test_from_diag(self):
        m = gb.Matrix.from_diag(np.array([1.0, 0.0, 3.0]))
        assert m.nvals == 2 and m.get(2, 2) == 3.0

    def test_build(self):
        m = gb.Matrix.sparse(gb.FP64, 2, 2)
        m.build([0, 1], [1, 0], [1.0, 2.0])
        assert m.get(0, 1) == 1.0

    def test_build_nonempty_raises(self):
        m = gb.Matrix.identity(2)
        with pytest.raises(gb.OutputNotEmptyError):
            m.build([0], [0], [1.0])

    def test_setitem_getitem(self):
        m = gb.Matrix.sparse(gb.FP64, 2, 2)
        m[0, 1] = 5.0
        assert m[0, 1] == 5.0
        assert (0, 1) in m and (1, 0) not in m

    def test_getitem_missing_raises(self):
        m = gb.Matrix.sparse(gb.FP64, 2, 2)
        with pytest.raises(gb.EmptyObjectError):
            _ = m[0, 0]

    def test_set_element_inserts_and_overwrites(self):
        m = gb.Matrix.sparse(gb.FP64, 3, 3)
        m.set_element(1, 1, 4.0)
        m.set_element(1, 0, 3.0)
        m.set_element(1, 1, 5.0)
        assert m.get(1, 1) == 5.0 and m.get(1, 0) == 3.0 and m.nvals == 2
        m.container.validate()

    def test_set_element_bounds(self):
        m = gb.Matrix.sparse(gb.FP64, 2, 2)
        with pytest.raises(gb.IndexOutOfBoundsError):
            m.set_element(2, 0, 1.0)

    def test_remove_element(self):
        m = gb.Matrix.from_lists([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        m.remove_element(0, 1)
        assert m.nvals == 1
        m.remove_element(0, 0)  # absent: no-op
        m.container.validate()

    def test_clear(self):
        m = gb.Matrix.identity(3)
        m.clear()
        assert m.nvals == 0 and m.shape == (3, 3)

    def test_dup_independent(self):
        m = gb.Matrix.identity(2)
        d = m.dup()
        d.set_element(0, 1, 9.0)
        assert m.get(0, 1) is None

    def test_to_lists_roundtrip(self):
        m = gb.Matrix.from_lists([1, 0], [0, 1], [2.0, 1.0], 2, 2)
        r, c, v = m.to_lists()
        m2 = gb.Matrix.from_lists(r, c, v, 2, 2)
        assert m == m2

    def test_csc_cache_invalidated_on_mutation(self):
        m = gb.Matrix.from_lists([0], [1], [1.0], 2, 2)
        csc1 = m.csc()
        assert m.csc().tcsr is csc1.tcsr  # cached (the container's memo)
        m.set_element(1, 0, 2.0)
        csc2 = m.csc()
        assert csc2.tcsr is not csc1.tcsr
        assert csc2.col(0)[0].size == 1

    def test_row_degrees(self):
        m = gb.Matrix.from_lists([0, 0, 1], [0, 1, 1], [1.0] * 3, 3, 2)
        np.testing.assert_array_equal(m.row_degrees(), [2, 1, 0])

    def test_equality(self):
        a = gb.Matrix.identity(2)
        b = gb.Matrix.identity(2)
        assert a == b
        b.set_element(0, 1, 1.0)
        assert a != b


class TestScalar:
    def test_empty_scalar(self):
        s = gb.Scalar(gb.FP64)
        assert s.is_empty and s.nvals == 0
        with pytest.raises(gb.EmptyObjectError):
            _ = s.value

    def test_set_get_clear(self):
        s = gb.Scalar(gb.INT64)
        s.set(4.9)
        assert s.value == 4  # cast into domain
        s.clear()
        assert s.is_empty

    def test_from_value_infers(self):
        assert gb.Scalar.from_value(2.5).type is gb.FP64
        assert gb.Scalar.from_value(True).type is gb.BOOL

    def test_equality_with_plain_value(self):
        assert gb.Scalar(gb.FP64, 2.0) == 2.0
        assert gb.Scalar(gb.FP64, 2.0) == gb.Scalar(gb.FP64, 2.0)
        assert gb.Scalar(gb.FP64) != 2.0

    def test_bool(self):
        assert bool(gb.Scalar(gb.FP64, 1.0))
        assert not bool(gb.Scalar(gb.FP64, 0.0))
        assert not bool(gb.Scalar(gb.FP64))

    def test_get_default(self):
        assert gb.Scalar(gb.FP64).get(7.0) == 7.0
