"""SparseVector container."""

import numpy as np
import pytest

from repro.containers.sparsevec import SparseVector
from repro.core.operators import PLUS, SECOND
from repro.exceptions import (
    IndexOutOfBoundsError,
    InvalidObjectError,
    InvalidValueError,
)
from repro.types import BOOL, FP64, INT64


class TestSparseVectorConstruction:
    def test_empty(self):
        v = SparseVector.empty(5, FP64)
        assert v.size == 5 and v.nvals == 0
        v.validate()

    def test_negative_size_raises(self):
        with pytest.raises(InvalidValueError):
            SparseVector.empty(-1, FP64)

    def test_from_lists_sorts(self):
        v = SparseVector.from_lists(10, [5, 1, 3], [50.0, 10.0, 30.0])
        np.testing.assert_array_equal(v.indices, [1, 3, 5])
        np.testing.assert_array_equal(v.values, [10.0, 30.0, 50.0])
        v.validate()

    def test_from_lists_dup_combines(self):
        v = SparseVector.from_lists(10, [2, 2, 2], [1.0, 2.0, 3.0], dup=PLUS)
        assert v.nvals == 1 and v.get(2) == 6.0

    def test_from_lists_dup_second_takes_last(self):
        v = SparseVector.from_lists(10, [2, 2], [1.0, 9.0], dup=SECOND)
        assert v.get(2) == 9.0

    def test_from_lists_dup_none_raises(self):
        with pytest.raises(InvalidValueError):
            SparseVector.from_lists(10, [2, 2], [1.0, 2.0])

    def test_from_lists_out_of_bounds(self):
        with pytest.raises(IndexOutOfBoundsError):
            SparseVector.from_lists(3, [3], [1.0])

    def test_from_lists_length_mismatch(self):
        with pytest.raises(InvalidValueError):
            SparseVector.from_lists(5, [1, 2], [1.0])

    def test_from_dense(self):
        v = SparseVector.from_dense(np.array([0.0, 2.0, 0.0, 4.0]))
        assert v.nvals == 2
        np.testing.assert_array_equal(v.indices, [1, 3])

    def test_from_dense_rejects_2d(self):
        with pytest.raises(InvalidValueError):
            SparseVector.from_dense(np.zeros((2, 2)))

    def test_full(self):
        v = SparseVector.full(4, 7.0, FP64)
        assert v.nvals == 4
        np.testing.assert_array_equal(v.to_dense(), [7.0] * 4)


class TestSparseVectorAccess:
    def test_get(self):
        v = SparseVector.from_lists(5, [1, 3], [10.0, 30.0])
        assert v.get(1) == 10.0
        assert v.get(0) is None

    def test_get_out_of_bounds(self):
        v = SparseVector.empty(3, FP64)
        with pytest.raises(IndexOutOfBoundsError):
            v.get(3)

    def test_iter_entries(self):
        v = SparseVector.from_lists(5, [1, 3], [10.0, 30.0])
        assert list(v.iter_entries()) == [(1, 10.0), (3, 30.0)]

    def test_to_dense_fill(self):
        v = SparseVector.from_lists(3, [1], [5.0])
        np.testing.assert_array_equal(v.to_dense(fill=-1.0), [-1.0, 5.0, -1.0])

    def test_present_mask(self):
        v = SparseVector.from_lists(4, [0, 2], [1.0, 1.0])
        np.testing.assert_array_equal(v.present_mask(), [True, False, True, False])

    def test_copy_independent(self):
        v = SparseVector.from_lists(3, [0], [1.0])
        c = v.copy()
        c.values[0] = 9.0
        assert v.values[0] == 1.0

    def test_astype(self):
        v = SparseVector.from_lists(3, [0], [1.5])
        i = v.astype(INT64)
        assert i.values.dtype == np.int64 and i.get(0) == 1

    def test_validate_catches_unsorted(self):
        bad = SparseVector(5, [3, 1], [1.0, 2.0])
        with pytest.raises(InvalidObjectError):
            bad.validate()

    def test_validate_catches_duplicates(self):
        bad = SparseVector(5, [1, 1], [1.0, 2.0])
        with pytest.raises(InvalidObjectError):
            bad.validate()

