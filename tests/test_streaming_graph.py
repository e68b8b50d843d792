"""DynamicGraph unit tests: pending-delta lifecycle, compaction, charging."""

import numpy as np
import pytest

import repro as gb
from repro.algorithms.bfs import bfs_levels
from repro.core.matrix import Matrix
from repro.exceptions import IndexOutOfBoundsError, InvalidValueError
from repro.streaming import DynamicGraph, EdgeBatch
from repro.streaming.graph import COMPACT_FRACTION, COMPACT_MIN_OPS
from repro.types import FP64


def _chain(n: int) -> Matrix:
    rows = np.arange(n - 1, dtype=np.int64)
    return Matrix.from_lists(rows, rows + 1, np.ones(n - 1), n, n, FP64)


# ---------------------------------------------------------------------------
# EdgeBatch
# ---------------------------------------------------------------------------


class TestEdgeBatch:
    def test_ragged_arrays_rejected(self):
        with pytest.raises(InvalidValueError):
            EdgeBatch(
                np.array([0, 1]), np.array([1]), np.array([1.0]),
                np.array([True]),
            )

    def test_out_of_bounds_rejected(self):
        g = DynamicGraph(_chain(4))
        with pytest.raises(IndexOutOfBoundsError):
            g.insert_edges([0], [4], [1.0])
        with pytest.raises(IndexOutOfBoundsError):
            g.insert_edges([-1], [0], [1.0])

    def test_normalized_keeps_last_per_edge(self):
        b = EdgeBatch.from_ops(
            [
                ("insert", 0, 1, 5.0),
                ("delete", 0, 1, 0.0),
                ("insert", 0, 1, 7.0),
            ]
        )
        nb = b.normalized()
        assert len(nb) == 1
        assert nb.is_insert[0] and nb.vals[0] == 7.0

    def test_dict_roundtrip(self):
        b = EdgeBatch.inserts([0, 2], [1, 3], [1.5, 2.5])
        rt = EdgeBatch.from_dict(b.to_dict())
        np.testing.assert_array_equal(rt.rows, b.rows)
        np.testing.assert_array_equal(rt.cols, b.cols)
        np.testing.assert_array_equal(rt.vals, b.vals)
        np.testing.assert_array_equal(rt.is_insert, b.is_insert)


# ---------------------------------------------------------------------------
# Pending-delta lifecycle (host backend)
# ---------------------------------------------------------------------------


class TestDynamicGraphHost:
    def test_requires_square(self):
        m = Matrix.from_lists([0], [1], [1.0], 2, 3, FP64)
        with pytest.raises(InvalidValueError):
            DynamicGraph(m)

    def test_insert_visible_before_compaction(self):
        g = DynamicGraph(_chain(5))
        assert not g.has_edge(0, 3)
        g.insert_edges([0], [3], [9.0])
        assert g.pending_ops == 1
        assert g.has_edge(0, 3) and g.edge_value(0, 3) == 9.0
        assert g.nvals() == 5
        assert g.base_nvals == 4  # CSR untouched until compaction

    def test_delete_visible_before_compaction(self):
        g = DynamicGraph(_chain(5))
        g.delete_edges([1], [2])
        assert not g.has_edge(1, 2)
        assert g.edge_value(1, 2) is None
        assert g.nvals() == 3

    def test_compact_bumps_version_once(self):
        g = DynamicGraph(_chain(5))
        c = g._matrix.container
        v0 = c.version
        g.insert_edges([0, 2], [2, 0], [1.0, 1.0])
        assert c.version == v0  # pending ops don't touch the container
        assert g.compact()
        assert c.version > v0
        assert g.pending_ops == 0 and g.base_nvals == 6
        assert not g.compact()  # idempotent: nothing pending

    def test_seq_counts_batches_not_compactions(self):
        g = DynamicGraph(_chain(5))
        g.insert_edges([0], [2], [1.0])
        g.insert_edges([0], [4], [1.0])
        assert g.seq == 2
        g.compact()
        assert g.seq == 2
        # Empty batches (after normalization) don't bump seq either.
        g.apply(EdgeBatch.from_ops([]))
        assert g.seq == 2

    def test_matrix_property_compacts_on_demand(self):
        g = DynamicGraph(_chain(5))
        g.insert_edges([4], [0], [2.0])
        m = g.matrix
        assert g.pending_ops == 0
        assert m.container.get(4, 0) == 2.0
        m.container.validate()

    def test_snapshot_is_independent(self):
        g = DynamicGraph(_chain(5))
        g.insert_edges([0], [3], [1.0])
        snap = g.snapshot()
        assert g.pending_ops == 1  # snapshot did not compact the live graph
        assert snap.container.get(0, 3) == 1.0
        g.delete_edges([0], [3])
        assert snap.container.get(0, 3) == 1.0  # unaffected by later churn

    def test_stats_accounting(self):
        g = DynamicGraph(_chain(6))
        g.insert_edges([0, 1], [2, 3], [1.0, 1.0])
        g.delete_edges([0], [1])
        g.compact()
        s = g.stats.as_dict()
        assert s["batches"] == 2
        assert s["inserts"] == 2 and s["deletes"] == 1
        assert s["compactions"] == 1 and s["auto_compactions"] == 0

    def test_auto_compaction_policy(self):
        # Below the op floor nothing compacts, however large the share.
        n = COMPACT_MIN_OPS + 2
        g = DynamicGraph(_chain(n))
        rows = np.arange(COMPACT_MIN_OPS - 1)
        g.insert_edges(rows, rows + 2, np.ones(rows.size))
        assert g.pending_ops == COMPACT_MIN_OPS - 1
        g.insert_edges([0], [n - 1], [1.0])
        assert g.pending_ops == 0  # floor reached -> auto-compacted
        assert g.stats.auto_compactions == 1

        # Past the floor, the delta must also exceed the base-entry share.
        base = int(COMPACT_MIN_OPS / COMPACT_FRACTION)
        g = DynamicGraph(_chain(base + 1))
        rows = np.arange(COMPACT_MIN_OPS)
        g.insert_edges(rows, rows + 2, np.ones(rows.size))
        assert g.pending_ops == COMPACT_MIN_OPS  # not above the share
        g.insert_edges([0], [base], [1.0])
        assert g.pending_ops == 0
        assert g.stats.auto_compactions == 1


# ---------------------------------------------------------------------------
# Compaction across backends
# ---------------------------------------------------------------------------


class TestCompactionBackends:
    def test_compaction_matches_host_merge(self, backend):
        rng = np.random.default_rng(42)
        n = 20
        base = Matrix.from_dense(
            (rng.random((n, n)) < 0.15).astype(np.float64), FP64
        )
        g = DynamicGraph(base)
        g.insert_edges(
            rng.integers(0, n, 12), rng.integers(0, n, 12),
            rng.integers(1, 9, 12).astype(np.float64),
        )
        rows, cols = g.edges()
        if rows.size:
            g.delete_edges(rows[:3], cols[:3])
        expect = g.snapshot()
        assert g.compact()
        got = g.matrix.container
        got.validate()
        np.testing.assert_array_equal(got.indptr, expect.container.indptr)
        np.testing.assert_array_equal(got.indices, expect.container.indices)
        np.testing.assert_array_equal(got.values, expect.container.values)

    def test_device_compaction_is_charged(self):
        from repro.gpu.device import get_device

        be = gb.get_backend("cuda_sim")
        be.evict_all()
        with gb.use_backend(be):
            g = DynamicGraph(_chain(64))
            bfs_levels(g.matrix, 0)  # make the base resident
            prof = get_device().profiler
            k0, t0 = prof.launch_count, prof.transfer_time_us
            g.insert_edges([0, 1, 2], [5, 6, 7], [1.0, 1.0, 1.0])
            g.compact()
            assert prof.launch_count > k0, "merge kernel not charged"
            assert prof.transfer_time_us > t0, "delta H2D not charged"

    def test_multi_sim_compaction_charges_comm(self):
        be = gb.get_backend("multi_sim").configure(nparts=2, splitter="equal_rows")
        be.reset()
        with gb.use_backend(be):
            g = DynamicGraph(_chain(64))
            bfs_levels(g.matrix, 0)
            counts = be.cluster.comm.stats.counts
            c0 = counts["all_to_all"]
            g.insert_edges([0, 1], [9, 8], [1.0, 1.0])
            g.compact()
            assert counts["all_to_all"] > c0, "all-to-all not charged"
