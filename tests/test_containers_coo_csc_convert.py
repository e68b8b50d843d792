"""COO staging, CSC view, and format conversions."""

import numpy as np
import pytest

from repro.containers import convert
from repro.containers.coo import COO, dedupe_triplets
from repro.containers.csc import CSCMatrix
from repro.containers.csr import CSRMatrix
from repro.core.matrix import Matrix
from repro.core.operators import MIN, PLUS, SECOND
from repro.exceptions import IndexOutOfBoundsError, InvalidValueError
from repro.types import FP64


class TestCOO:
    def test_basic(self):
        coo = COO(3, 3, [0, 2], [1, 2], [1.0, 2.0])
        assert coo.nvals == 2 and coo.type is FP64

    def test_bounds_checked(self):
        with pytest.raises(IndexOutOfBoundsError):
            COO(2, 2, [2], [0], [1.0])
        with pytest.raises(IndexOutOfBoundsError):
            COO(2, 2, [0], [-1], [1.0])
        # A zero-length dimension has no valid index: a 2×0 matrix holding
        # column 5 or a 0×3 one holding row 0 would be an invalid CSR.
        with pytest.raises(IndexOutOfBoundsError):
            Matrix.from_lists([0], [5], [1.0], 2, 0, FP64)
        with pytest.raises(IndexOutOfBoundsError):
            Matrix.from_lists([0], [0], [1.0], 0, 3, FP64)
        assert Matrix.from_lists([], [], [], 0, 3, FP64).shape == (0, 3)

    def test_length_mismatch(self):
        with pytest.raises(InvalidValueError):
            COO(2, 2, [0, 1], [0], [1.0])

    def test_negative_dims(self):
        with pytest.raises(InvalidValueError):
            COO(-2, 2, [], [], [])

    def test_deduped_sorts(self):
        coo = COO(3, 3, [2, 0], [0, 1], [9.0, 1.0]).deduped(None)
        np.testing.assert_array_equal(coo.rows, [0, 2])

    def test_deduped_combines_plus(self):
        coo = COO(2, 2, [0, 0, 0], [1, 1, 1], [1.0, 2.0, 4.0]).deduped(PLUS)
        assert coo.nvals == 1 and coo.vals[0] == 7.0

    def test_deduped_second_keeps_input_order(self):
        coo = COO(2, 2, [0, 0], [1, 1], [1.0, 9.0]).deduped(SECOND)
        assert coo.vals[0] == 9.0

    def test_duplicates_without_dup_raise(self):
        with pytest.raises(InvalidValueError):
            COO(2, 2, [0, 0], [1, 1], [1.0, 2.0]).deduped(None)


class TestDedupeTriplets:
    def test_no_dups_passthrough(self):
        r, c, v = dedupe_triplets(
            np.array([1, 0]), np.array([0, 1]), np.array([2.0, 1.0]), None
        )
        np.testing.assert_array_equal(r, [0, 1])
        np.testing.assert_array_equal(v, [1.0, 2.0])

    def test_min_dup(self):
        r, c, v = dedupe_triplets(
            np.array([0, 0, 1]),
            np.array([0, 0, 1]),
            np.array([5.0, 3.0, 7.0]),
            MIN,
        )
        np.testing.assert_array_equal(v, [3.0, 7.0])

    def test_empty(self):
        r, c, v = dedupe_triplets(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]), None
        )
        assert r.size == 0


class TestCSC:
    @pytest.fixture
    def m(self):
        return CSRMatrix.from_dense(
            np.array([[1.0, 0, 2.0], [0, 3.0, 0], [4.0, 0, 0]])
        )

    def test_shape_swapped_back(self, m):
        csc = CSCMatrix.from_csr(m)
        assert csc.shape == m.shape

    def test_col_access(self, m):
        csc = CSCMatrix.from_csr(m)
        rows, vals = csc.col(0)
        np.testing.assert_array_equal(rows, [0, 2])
        np.testing.assert_array_equal(vals, [1.0, 4.0])

    def test_col_degrees(self, m):
        csc = CSCMatrix.from_csr(m)
        np.testing.assert_array_equal(csc.col_degrees(), [2, 1, 1])

    def test_roundtrip(self, m):
        back = CSCMatrix.from_csr(m).to_csr()
        np.testing.assert_array_equal(back.to_dense(), m.to_dense())

    def test_tcsr_is_transpose(self, m):
        csc = CSCMatrix.from_csr(m)
        np.testing.assert_array_equal(csc.tcsr.to_dense(), m.to_dense().T)


class TestConvert:
    def test_build_matrix(self):
        m = convert.build_matrix(2, 3, [0, 1], [2, 0], [1.0, 2.0])
        assert m.get(0, 2) == 1.0

    def test_build_vector(self):
        v = convert.build_vector(5, [4, 0], [1.0, 2.0])
        assert v.get(4) == 1.0

    def test_matrix_row_as_vector(self):
        m = CSRMatrix.from_dense(np.array([[0, 5.0, 0], [1.0, 0, 0]]))
        v = convert.matrix_row_as_vector(m, 0)
        assert v.size == 3 and v.get(1) == 5.0

    def test_vector_as_row_matrix(self):
        v = convert.build_vector(4, [1, 3], [1.0, 2.0])
        m = convert.vector_as_row_matrix(v)
        assert m.shape == (1, 4) and m.get(0, 3) == 2.0

    def test_vector_as_col_matrix(self):
        v = convert.build_vector(4, [1, 3], [1.0, 2.0])
        m = convert.vector_as_col_matrix(v)
        assert m.shape == (4, 1) and m.get(3, 0) == 2.0
        m.validate()
