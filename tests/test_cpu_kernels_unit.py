"""CPU backend internals: segments, take_ranges, direction heuristic."""

import numpy as np
import pytest

from repro.backends.cpu.segments import run_starts, segment_reduce, ufunc_for
from repro.backends.cpu.spmv import (
    choose_direction,
    mask_row_candidates,
    take_ranges,
)
from repro.containers.coo import COO
from repro.containers.csr import CSRMatrix
from repro.containers.sparsevec import SparseVector
from repro.core.descriptor import DEFAULT, Descriptor
from repro.core.monoid import (
    ANY_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    Monoid,
    PLUS_MONOID,
)
from repro.core.operators import FIRST, SECOND, binary_op
from repro.types import FP64


class TestRunStarts:
    def test_basic(self):
        keys = np.array([0, 0, 1, 3, 3, 3])
        np.testing.assert_array_equal(run_starts(keys), [0, 2, 3])

    def test_all_distinct(self):
        np.testing.assert_array_equal(run_starts(np.array([1, 2, 3])), [0, 1, 2])

    def test_all_same(self):
        np.testing.assert_array_equal(run_starts(np.array([7, 7, 7])), [0])

    def test_empty(self):
        assert run_starts(np.array([], dtype=np.int64)).size == 0


class TestSegmentReduce:
    def test_plus(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = segment_reduce(v, np.array([0, 2]), PLUS_MONOID, np.float64)
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_min_max(self):
        v = np.array([3.0, 1.0, 5.0, 2.0])
        starts = np.array([0, 2])
        np.testing.assert_array_equal(
            segment_reduce(v, starts, MIN_MONOID, np.float64), [1.0, 2.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, MAX_MONOID, np.float64), [3.0, 5.0]
        )

    def test_first_second_any(self):
        v = np.array([10.0, 20.0, 30.0, 40.0])
        starts = np.array([0, 2])
        first_m = Monoid("F", FIRST, lambda t: t.cast(0))
        second_m = Monoid("S", SECOND, lambda t: t.cast(0))
        np.testing.assert_array_equal(
            segment_reduce(v, starts, first_m, np.float64), [10.0, 30.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, second_m, np.float64), [20.0, 40.0]
        )
        np.testing.assert_array_equal(
            segment_reduce(v, starts, ANY_MONOID, np.float64), [10.0, 30.0]
        )

    def test_custom_monoid_python_fallback(self):
        gcd = binary_op("TEST_GCD_SEG", np.gcd, commutative=True, associative=True)
        # np.gcd IS a ufunc, so force the fallback with a plain lambda.
        fold = binary_op(
            "TEST_FOLD_SEG", lambda x, y: x * 10 + y, associative=True
        )
        m = Monoid("FOLD_M", fold, lambda t: t.cast(0))
        v = np.array([1, 2, 3, 4], dtype=np.int64)
        out = segment_reduce(v, np.array([0, 2]), m, np.int64)
        np.testing.assert_array_equal(out, [12, 34])

    def test_empty(self):
        out = segment_reduce(np.array([]), np.array([], dtype=np.int64), PLUS_MONOID, np.float64)
        assert out.size == 0

    def test_ufunc_for(self):
        from repro.core.operators import PLUS, MINUS

        assert ufunc_for(PLUS) is np.add
        assert ufunc_for(MINUS) is np.subtract  # func itself is a ufunc


class TestTakeRanges:
    def test_gathers_slices(self):
        indptr = np.array([0, 2, 2, 5])
        take, lens = take_ranges(indptr, np.array([0, 2]))
        np.testing.assert_array_equal(take, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(lens, [2, 3])

    def test_subset_rows(self):
        indptr = np.array([0, 2, 4, 6])
        take, lens = take_ranges(indptr, np.array([2, 0]))
        np.testing.assert_array_equal(take, [4, 5, 0, 1])
        np.testing.assert_array_equal(lens, [2, 2])

    def test_empty_rows(self):
        indptr = np.array([0, 0, 3])
        take, lens = take_ranges(indptr, np.array([0]))
        assert take.size == 0
        np.testing.assert_array_equal(lens, [0])

    def test_no_rows(self):
        take, lens = take_ranges(np.array([0, 1]), np.array([], dtype=np.int64))
        assert take.size == 0 and lens.size == 0


class TestMaskRowCandidates:
    def test_structural(self):
        m = SparseVector(5, [1, 3], [True, False], None)
        rows = mask_row_candidates(m, Descriptor(structural_mask=True))
        np.testing.assert_array_equal(rows, [1, 3])

    def test_valued_filters_false(self):
        m = SparseVector(5, [1, 3], [True, False], None)
        rows = mask_row_candidates(m, DEFAULT)
        np.testing.assert_array_equal(rows, [1])

    def test_complement_disables_pruning(self):
        m = SparseVector(5, [1], [True], None)
        assert mask_row_candidates(m, Descriptor(complement_mask=True)) is None

    def test_no_mask(self):
        assert mask_row_candidates(None, DEFAULT) is None


class TestChooseDirection:
    @pytest.fixture
    def a(self):
        # 100 rows, ~800 nnz.
        rng = np.random.default_rng(0)
        d = rng.random((100, 100))
        d[d < 0.92] = 0
        return CSRMatrix.from_dense(d)

    def test_explicit_passthrough(self, a):
        u = SparseVector.empty(100, FP64)
        assert choose_direction(a, u, None, DEFAULT, "push", flip=True) == "push"
        assert choose_direction(a, u, None, DEFAULT, "pull", flip=False) == "pull"

    def test_auto_small_frontier_pushes(self, a):
        u = SparseVector(100, [5], [1.0], FP64)
        assert choose_direction(a, u, None, DEFAULT, "auto", flip=True) == "push"

    def test_auto_dense_frontier_pulls(self, a):
        u = SparseVector.full(100, 1.0, FP64)
        assert choose_direction(a, u, None, DEFAULT, "auto", flip=True) == "pull"

    def test_directed_out_star_prices_the_right_degrees(self):
        # Out-star: hub 0 -> every leaf.  Row degrees are (n-1, 0, ..., 0),
        # in-degrees (0, 1, ..., 1), so swapping the two vectors flips
        # every decision below.  mxv (flip=False) pushes over Aᵀ and pulls
        # rows of A; vxm (flip=True) pushes over A and pulls rows of Aᵀ.
        n = 16
        a = CSRMatrix.from_coo(
            COO(n, n, np.zeros(n - 1, np.int64), np.arange(1, n), np.ones(n - 1))
        )
        hub = SparseVector(n, [0], [1.0], FP64)
        leaf = SparseVector(n, [5], [1.0], FP64)
        leaves = SparseVector(n, np.arange(1, n), np.ones(n - 1, bool), None)
        # Unmasked hub frontier: pull costs nnz = n-1.  In mxv the hub has
        # in-degree 0, so push is free; in vxm it expands n-1 edges (×2).
        assert choose_direction(a, hub, None, DEFAULT, "auto", flip=False) == "push"
        assert choose_direction(a, hub, None, DEFAULT, "auto", flip=True) == "pull"
        # Leaf frontier, mask = the leaves.  mxv: push 2·in_deg(5) = 2 vs
        # pull Σ row_deg(leaves) = 0; vxm: push 2·row_deg(5) = 0 vs pull
        # Σ in_deg(leaves) = n-1.
        assert choose_direction(a, leaf, leaves, DEFAULT, "auto", flip=False) == "pull"
        assert choose_direction(a, leaf, leaves, DEFAULT, "auto", flip=True) == "push"
