"""Hypothesis property tests for the pending delta and its merge.

A graph's pending delta (a normalized ``EdgeBatch``) is only sound if it
is *invisible*: folding pending ops into the CSR (compaction) must land
bit-identically on the same arrays a from-scratch rebuild produces,
deletes of absent edges must change nothing, and reads through the delta
(point lookups, edge lists, and full GraphBLAS ops on the compacted
matrix) must agree with reads of an independently materialised graph —
across semirings, masks, and SpMSpV directions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.descriptor import Descriptor
from repro.core.matrix import Matrix
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.core.vector import Vector
from repro.streaming import DynamicGraph, EdgeBatch, merge_overlay
from repro.types import FP64


@st.composite
def graph_and_batch(draw, max_dim=10):
    """A square dense adjacency plus one mixed insert/delete batch."""
    n = draw(st.integers(2, max_dim))
    elems = st.floats(min_value=1, max_value=9, allow_nan=False)
    dense = np.zeros((n, n))
    nnz = draw(st.integers(0, n * n))
    for _ in range(nnz):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        dense[i, j] = draw(elems)
    nops = draw(st.integers(0, 12))
    rows, cols, vals, ins = [], [], [], []
    for _ in range(nops):
        rows.append(draw(st.integers(0, n - 1)))
        cols.append(draw(st.integers(0, n - 1)))
        vals.append(draw(elems))
        ins.append(draw(st.booleans()))
    batch = EdgeBatch(
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals),
        np.array(ins, dtype=bool),
    )
    return dense, batch


def _apply_to_dense(dense: np.ndarray, batch: EdgeBatch) -> np.ndarray:
    out = dense.copy()
    for k in range(len(batch)):
        i, j = int(batch.rows[k]), int(batch.cols[k])
        out[i, j] = float(batch.vals[k]) if batch.is_insert[k] else 0.0
    return out


def _assert_bit_identical(got: CSRMatrix, want: CSRMatrix) -> None:
    got.validate()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.values, want.values)


def _csr_from_edges(n: int, edges: dict) -> CSRMatrix:
    keys = sorted(edges)
    rows = np.array([i for i, _ in keys], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    cols = np.array([j for _, j in keys], dtype=np.int64)
    return CSRMatrix(n, n, indptr, cols, np.array([edges[k] for k in keys]), FP64)


class TestMergeOverlay:
    @given(graph_and_batch())
    @settings(max_examples=80, deadline=None)
    def test_compact_matches_rebuilt_csr(self, data):
        """apply → compact lands on the exact arrays a rebuild produces."""
        dense, batch = data
        g = DynamicGraph(Matrix.from_dense(dense, FP64))
        g.apply(batch)
        g.compact()
        want = CSRMatrix.from_dense(_apply_to_dense(dense, batch))
        _assert_bit_identical(g.matrix.container, want)

    @given(graph_and_batch())
    @settings(max_examples=80, deadline=None)
    def test_delete_of_absent_edge_is_noop(self, data):
        """Deleting only edges the graph never had changes nothing."""
        dense, batch = data
        absent = [
            k
            for k in range(len(batch))
            if dense[batch.rows[k], batch.cols[k]] == 0.0
        ]
        if not absent:
            return
        idx = np.array(absent, dtype=np.int64)
        deletes = EdgeBatch.deletes(batch.rows[idx], batch.cols[idx])
        g = DynamicGraph(Matrix.from_dense(dense, FP64))
        before = CSRMatrix.from_dense(dense)
        g.apply(deletes)
        g.compact()
        _assert_bit_identical(g.matrix.container, before)

    @given(graph_and_batch())
    @settings(max_examples=80, deadline=None)
    def test_overlay_absorb_last_wins(self, data):
        """Chaining ops for the same edge with ``then`` keeps only the last."""
        dense, batch = data
        if len(batch) == 0:
            return
        # Override every touched edge with a delete; the merge must agree
        # with applying the batch then deleting those edges.
        delta = batch.then(EdgeBatch.deletes(batch.rows, batch.cols))
        assert len(delta) == len(batch.normalized())
        base = CSRMatrix.from_dense(dense)
        got = CSRMatrix(base.nrows, base.ncols, *merge_overlay(base, delta))
        expect = _apply_to_dense(dense, batch)
        expect[batch.rows, batch.cols] = 0.0
        _assert_bit_identical(got, CSRMatrix.from_dense(expect))

    def test_wide_keyspace_matches_rebuild(self):
        """nrows * ncols > 2^32: the one-key merge still equals a rebuild,
        with pending ops shadowing base entries in the same row."""
        n = 100_000
        assert n * n > 2**32
        # Row 42950's keys exceed 2^32 but wrap to below row 7's in 32 bits.
        w = 42_950
        base_edges = {(0, 5): 1.0, (0, n - 1): 2.0, (7, 3): 3.0, (w, 10): 4.0,
                      (w, n - 1): 5.0, (n - 1, 0): 6.0, (n - 1, n - 1): 7.0}
        batch = EdgeBatch(
            np.array([0, 0, 0, 7, w, w, n - 1, n - 1, 42]),
            np.array([n - 1, 5, 6, 3, 10, 11, n - 1, 1, n - 2]),
            np.array([20.0, 0.0, 6.0, 0.0, 30.0, 9.0, 50.0, 7.0, 8.0]),
            np.array([True, False, True, False, True, True, True, True, True]),
        )
        base = _csr_from_edges(n, base_edges)
        got = CSRMatrix(n, n, *merge_overlay(base, batch.normalized()), FP64)
        want = dict(base_edges)
        for i, j, v, ins in zip(batch.rows, batch.cols, batch.vals, batch.is_insert):
            if ins:
                want[(int(i), int(j))] = float(v)
            else:
                want.pop((int(i), int(j)), None)
        _assert_bit_identical(got, _csr_from_edges(n, want))

    @given(graph_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_point_reads_through_overlay(self, data):
        """has_edge / edge_value see through pending (uncompacted) ops."""
        dense, batch = data
        g = DynamicGraph(Matrix.from_dense(dense, FP64))
        g.apply(batch)  # NOT compacted: reads must merge base + delta
        expect = _apply_to_dense(dense, batch)
        n = expect.shape[0]
        for i in range(n):
            for j in range(n):
                assert g.has_edge(i, j) == (expect[i, j] != 0.0)
                if expect[i, j] != 0.0:
                    assert g.edge_value(i, j) == expect[i, j]
        rows, cols = g.edges()
        logical = np.zeros_like(expect)
        logical[rows, cols] = 1.0
        np.testing.assert_array_equal(logical != 0, expect != 0)


class TestOverlayOpAgreement:
    @given(graph_and_batch(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ops_agree_with_materialized(self, data, vseed):
        """mxv over the compacted graph == mxv over an independent rebuild,
        across semirings × masks × directions."""
        dense, batch = data
        g = DynamicGraph(Matrix.from_dense(dense, FP64))
        g.apply(batch)
        m_overlay = g.matrix  # compacts the pending delta in place
        m_fresh = Matrix.from_dense(_apply_to_dense(dense, batch), FP64)
        n = m_fresh.nrows
        rng = np.random.default_rng(vseed)
        uidx = np.nonzero(rng.random(n) < 0.6)[0].astype(np.int64)
        u = Vector.from_lists(uidx, rng.integers(1, 9, uidx.size), n, FP64)
        midx = np.nonzero(rng.random(n) < 0.5)[0].astype(np.int64)
        mask = Vector.from_lists(midx, np.ones(midx.size), n, FP64)
        desc = Descriptor(structural_mask=True, replace=True)
        for semiring in (PLUS_TIMES, MIN_PLUS):
            for use_mask in (False, True) if midx.size else (False,):
                for direction in ("push", "pull"):
                    kw = {"direction": direction}
                    if use_mask:
                        kw.update(mask=mask, desc=desc)
                    w1 = ops.mxv(Vector.sparse(FP64, n), m_overlay, u, semiring, **kw)
                    w2 = ops.mxv(Vector.sparse(FP64, n), m_fresh, u, semiring, **kw)
                    np.testing.assert_array_equal(
                        w1.indices_array(), w2.indices_array()
                    )
                    np.testing.assert_array_equal(
                        w1.values_array(), w2.values_array()
                    )
