"""Container-level unit tests for mask evaluation and the merge pipeline.

These test :mod:`repro.core.mask` and :mod:`repro.core.accumulate` directly
(below the frontend), covering boundary cases the operation-level tests
can't isolate: empty masks, empty outputs, all-false masks, and the exact
positions semantics of complements.
"""

import numpy as np
import pytest

from repro.containers.csr import CSRMatrix, flat_keys
from repro.containers.sparsevec import SparseVector
from repro.core.accumulate import merge_matrix, merge_vector
from repro.core.descriptor import DEFAULT, Descriptor
from repro.core.mask import matrix_mask_at, vector_mask_at
from repro.core.operators import MAX, PLUS
from repro.exceptions import DimensionMismatchError
from repro.types import BOOL, FP64, INT64


def sv(size, idx, vals, typ=FP64):
    return SparseVector(size, np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=typ.dtype), typ)


class TestVectorMaskAt:
    def test_no_mask_allows_everything(self):
        out = vector_mask_at(None, DEFAULT, np.array([0, 5, 9]))
        assert out.all()

    def test_valued_mask(self):
        mask = sv(10, [2, 5], [True, False], BOOL)
        out = vector_mask_at(mask, DEFAULT, np.array([0, 2, 5]))
        np.testing.assert_array_equal(out, [False, True, False])

    def test_structural_mask(self):
        mask = sv(10, [2, 5], [True, False], BOOL)
        out = vector_mask_at(mask, Descriptor(structural_mask=True), np.array([0, 2, 5]))
        np.testing.assert_array_equal(out, [False, True, True])

    def test_complement(self):
        mask = sv(10, [2], [True], BOOL)
        out = vector_mask_at(mask, Descriptor(complement_mask=True), np.array([1, 2, 3]))
        np.testing.assert_array_equal(out, [True, False, True])

    def test_empty_mask_all_false(self):
        mask = SparseVector.empty(10, BOOL)
        out = vector_mask_at(mask, DEFAULT, np.array([0, 1]))
        assert not out.any()

    def test_empty_mask_complement_all_true(self):
        mask = SparseVector.empty(10, BOOL)
        out = vector_mask_at(mask, Descriptor(complement_mask=True), np.array([0, 1]))
        assert out.all()

    def test_empty_positions(self):
        mask = sv(10, [1], [True], BOOL)
        out = vector_mask_at(mask, DEFAULT, np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_numeric_mask_values_truthiness(self):
        mask = sv(10, [0, 1], [0.0, 2.5], FP64)
        out = vector_mask_at(mask, DEFAULT, np.array([0, 1]))
        np.testing.assert_array_equal(out, [False, True])


class TestMatrixMaskAt:
    def test_flat_keys(self):
        keys = flat_keys(np.array([0, 1]), np.array([2, 0]), ncols=3)
        np.testing.assert_array_equal(keys, [2, 3])

    def test_membership(self):
        mask = CSRMatrix.from_dense(np.array([[0, 1], [1, 0]], dtype=bool))
        keys = np.array([0, 1, 2, 3])
        out = matrix_mask_at(mask, DEFAULT, keys)
        np.testing.assert_array_equal(out, [False, True, True, False])

    def test_no_mask(self):
        out = matrix_mask_at(None, DEFAULT, np.array([7]))
        assert out.all()


class TestMergeVector:
    def test_plain_replace_all(self):
        c = sv(5, [0, 4], [9.0, 9.0])
        t = sv(5, [1], [1.0])
        out = merge_vector(c, t)
        assert list(out.indices) == [1]

    def test_accum_union(self):
        c = sv(5, [0, 1], [10.0, 20.0])
        t = sv(5, [1, 2], [1.0, 2.0])
        out = merge_vector(c, t, accum=PLUS)
        assert list(out.indices) == [0, 1, 2]
        np.testing.assert_array_equal(out.values, [10.0, 21.0, 2.0])

    def test_accum_max(self):
        c = sv(3, [0], [5.0])
        t = sv(3, [0], [3.0])
        out = merge_vector(c, t, accum=MAX)
        assert out.values[0] == 5.0

    def test_empty_t_with_accum_keeps_c(self):
        c = sv(3, [1], [7.0])
        t = SparseVector.empty(3, FP64)
        out = merge_vector(c, t, accum=PLUS)
        assert out.get(1) == 7.0

    def test_empty_t_no_accum_clears(self):
        c = sv(3, [1], [7.0])
        t = SparseVector.empty(3, FP64)
        out = merge_vector(c, t)
        assert out.nvals == 0

    def test_all_false_mask_keeps_c(self):
        c = sv(3, [1], [7.0])
        t = sv(3, [0], [1.0])
        mask = sv(3, [0], [False], BOOL)
        out = merge_vector(c, t, mask=mask)
        assert out.to_dense(0).tolist() == [0.0, 7.0, 0.0]

    def test_replace_without_mask_equals_plain(self):
        c = sv(3, [1], [7.0])
        t = sv(3, [0], [1.0])
        a = merge_vector(c, t, desc=Descriptor(replace=True))
        b = merge_vector(c, t)
        assert list(a.indices) == list(b.indices)

    def test_output_domain_is_c_domain(self):
        c = SparseVector.empty(3, INT64)
        t = sv(3, [0], [2.9])
        out = merge_vector(c, t)
        assert out.type is INT64 and out.get(0) == 2

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            merge_vector(SparseVector.empty(3, FP64), SparseVector.empty(4, FP64))

    def test_mask_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            merge_vector(
                SparseVector.empty(3, FP64),
                SparseVector.empty(3, FP64),
                mask=SparseVector.empty(4, BOOL),
            )


class TestMergeMatrix:
    def mat(self, dense, typ=FP64):
        return CSRMatrix.from_dense(np.asarray(dense, dtype=typ.dtype))

    def test_plain_write(self):
        c = self.mat([[1.0, 0], [0, 0]])
        t = self.mat([[0, 2.0], [0, 0]])
        out = merge_matrix(c, t)
        assert out.get(0, 0) is None and out.get(0, 1) == 2.0

    def test_accum(self):
        c = self.mat([[1.0, 0], [0, 4.0]])
        t = self.mat([[2.0, 3.0], [0, 0]])
        out = merge_matrix(c, t, accum=PLUS)
        assert out.get(0, 0) == 3.0
        assert out.get(0, 1) == 3.0
        assert out.get(1, 1) == 4.0

    def test_masked_replace(self):
        c = self.mat([[1.0, 1.0], [1.0, 1.0]])
        t = self.mat([[5.0, 5.0], [5.0, 5.0]])
        mask = CSRMatrix.from_dense(np.array([[1, 0], [0, 0]], dtype=bool))
        out = merge_matrix(c, t, mask=mask, desc=Descriptor(replace=True))
        assert out.nvals == 1 and out.get(0, 0) == 5.0

    def test_empty_everything(self):
        c = CSRMatrix.empty(2, 3, FP64)
        t = CSRMatrix.empty(2, 3, FP64)
        out = merge_matrix(c, t)
        assert out.nvals == 0 and out.shape == (2, 3)
        out.validate()

    def test_result_canonical(self):
        c = self.mat([[0, 1.0, 0], [2.0, 0, 0]])
        t = self.mat([[3.0, 0, 4.0], [0, 0, 5.0]])
        out = merge_matrix(c, t, accum=PLUS)
        out.validate()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            merge_matrix(CSRMatrix.empty(2, 2, FP64), CSRMatrix.empty(2, 3, FP64))
