"""Tests for the multi-device subsystem (``repro.distributed`` + multi_sim).

Four families:

- partition round-trips: slicing a container into P block-rows and
  reassembling is the identity, for both splitter policies (property-tested
  with hypothesis over random CSR structures);
- the communication model's cost algebra (free at P=1, ring/tree step
  counts, stats accounting);
- cluster scheduling invariants (barrier synchronisation, comm on the
  critical path, per-device counters);
- backend equivalence: multi_sim at P=1 is *counter*-identical to
  cuda_sim, and at any P its results are bit-identical for exact additive
  monoids (the push→pull demotion guard for inexact float adds).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.containers.sparsevec import SparseVector
from repro.core import operations as ops
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.distributed.comm import CommModel, CommStats
from repro.distributed.partition import (
    PartitionedCSR,
    PartitionedVector,
    concat_row_blocks,
    degree_balanced_splitters,
    equal_rows_splitters,
    make_splitters,
)
from repro.distributed.topology import DGX_NVLINK, PCIE_ONLY
from repro.generators.rmat import rmat
from repro.testing.equivalence import assert_same
from repro.gpu.device import get_device, reset_device
from repro.types import FP64

from .conftest import random_dense_matrix, random_dense_vector


def multi_sim(nparts, splitter="equal_rows", topology=DGX_NVLINK):
    return get_backend("multi_sim").configure(
        nparts=nparts, splitter=splitter, topology=topology
    )


# ---------------------------------------------------------------------------
# Partition → reassemble round trips
# ---------------------------------------------------------------------------

csr_strategies = st.builds(
    lambda nrows, ncols, density, seed: (nrows, ncols, density, seed),
    st.integers(1, 40),
    st.integers(1, 40),
    st.floats(0.0, 0.6),
    st.integers(0, 2**31 - 1),
)


def _random_csr(nrows, ncols, density, seed) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = random_dense_matrix(rng, nrows, ncols, density=density)
    return gb.Matrix.from_dense(dense).container


class TestPartitionRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(params=csr_strategies, nparts=st.integers(1, 6),
           splitter=st.sampled_from(["equal_rows", "degree_balanced"]))
    def test_matrix_round_trip(self, params, nparts, splitter):
        a = _random_csr(*params)
        part = PartitionedCSR(a, nparts, splitter)
        back = part.reassemble()
        np.testing.assert_array_equal(back.indptr, a.indptr)
        np.testing.assert_array_equal(back.indices, a.indices)
        np.testing.assert_array_equal(back.values, a.values)
        assert back.nrows == a.nrows and back.ncols == a.ncols

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**31 - 1), nparts=st.integers(1, 6))
    def test_vector_round_trip(self, n, density, seed, nparts):
        rng = np.random.default_rng(seed)
        u = gb.Vector.from_dense(
            random_dense_vector(rng, n, density=density)
        ).container
        sp = equal_rows_splitters(n, nparts)
        pv = PartitionedVector(u, sp)
        shards = [pv.shard(p) for p in range(pv.nparts)]
        back = PartitionedVector.reassemble(shards, sp, typ=u.type)
        np.testing.assert_array_equal(back.indices, u.indices)
        np.testing.assert_array_equal(back.values, u.values)
        assert back.size == u.size

    @settings(max_examples=40, deadline=None)
    @given(params=csr_strategies, nparts=st.integers(1, 6))
    def test_concat_inverts_shards(self, params, nparts):
        a = _random_csr(*params)
        part = PartitionedCSR(a, nparts, "degree_balanced")
        back = concat_row_blocks(part.shards, a.ncols, a.type)
        np.testing.assert_array_equal(back.indptr, a.indptr)
        np.testing.assert_array_equal(back.indices, a.indices)
        np.testing.assert_array_equal(back.values, a.values)

    def test_splitters_are_valid_partitions(self):
        g = rmat(8, 8, seed=2).container
        for nparts in (1, 2, 3, 5, 8):
            for policy in ("equal_rows", "degree_balanced"):
                sp = make_splitters(g, nparts, policy)
                assert sp[0] == 0 and sp[-1] == g.nrows
                assert (np.diff(sp) >= 0).all()
                assert len(sp) == nparts + 1

    def test_degree_balanced_beats_equal_rows_on_skew(self):
        # One hub row holding half the edges: degree-balanced isolates it.
        n = 64
        indptr = np.zeros(n + 1, np.int64)
        deg = np.ones(n, np.int64)
        deg[0] = n  # hub
        indptr[1:] = np.cumsum(deg)
        indices = np.concatenate([np.arange(d) % n for d in deg]).astype(np.int64)
        a = CSRMatrix(n, n, indptr, indices, np.ones(indices.size), FP64)
        for nparts in (2, 4):
            sp = degree_balanced_splitters(a.indptr, nparts)
            nnz_per = np.diff(a.indptr[sp])
            eq = np.diff(a.indptr[equal_rows_splitters(n, nparts)])
            assert nnz_per.max() <= eq.max()

    def test_p1_partition_aliases_source(self):
        a = rmat(6, 4, seed=1).container
        part = PartitionedCSR(a, 1)
        assert part.shards[0] is a
        u = SparseVector(8, np.array([1, 5]), np.array([1.0, 2.0]), FP64)
        pv = PartitionedVector(u, equal_rows_splitters(8, 1))
        assert pv.shard(0) is u

    def test_owner_of(self):
        a = rmat(6, 4, seed=1).container
        part = PartitionedCSR(a, 4, "equal_rows")
        for row in (0, 17, a.nrows - 1):
            p = part.owner_of(row)
            lo, hi = part.shard_range(p)
            assert lo <= row < hi


# ---------------------------------------------------------------------------
# Communication model
# ---------------------------------------------------------------------------

class TestCommModel:
    def test_free_at_p1(self):
        m = CommModel(DGX_NVLINK, 1)
        assert m.allgather(1e6) == 0.0
        assert m.reduce_scatter(1e6) == 0.0
        assert m.broadcast(1e6) == 0.0
        assert m.all_to_all(1e6) == 0.0
        assert m.frontier_exchange([0.0]) == 0.0
        assert m.allreduce_scalar() == 0.0
        assert m.stats.total_count == 0

    def test_ring_collectives_scale_with_p(self):
        nbytes = 1 << 20
        prev = 0.0
        for p in (2, 4, 8):
            m = CommModel(DGX_NVLINK, p)
            dt = m.allgather(nbytes)
            # (P−1) steps of a 1/P chunk: latency grows, bandwidth term ~constant.
            assert dt > 0
            steps = (p - 1) * m._ring_step_us(nbytes / p)
            assert dt == pytest.approx(steps)
            assert dt >= prev * 0.5  # monotone-ish: latency term dominates growth
            prev = dt

    def test_slow_topology_costs_more(self):
        fast = CommModel(DGX_NVLINK, 4)
        slow = CommModel(PCIE_ONLY, 4)
        assert slow.allgather(1 << 20) > fast.allgather(1 << 20)

    def test_frontier_exchange_bottlenecked_by_busiest(self):
        m = CommModel(DGX_NVLINK, 4)
        balanced = m.frontier_exchange([1000.0] * 4)
        skewed = m.frontier_exchange([4000.0, 0.0, 0.0, 0.0])
        assert skewed > balanced

    def test_stats_accounting(self):
        m = CommModel(DGX_NVLINK, 4)
        m.allgather(1000.0)
        m.broadcast(500.0)
        m.frontier_exchange([10.0, 20.0, 0.0, 5.0])
        s = m.stats
        assert s.counts["allgather"] == 1
        assert s.bytes["allgather"] == 3 * 1000.0  # (P−1)·total wire bytes
        assert s.counts["broadcast"] == 1
        assert s.bytes["frontier_exchange"] == 35.0
        assert s.total_count == 3
        assert s.time_us > 0
        d = s.as_dict()
        assert d["counts"]["allgather"] == 1
        m.stats.reset()
        assert m.stats.total_count == 0 and m.stats.time_us == 0.0


# ---------------------------------------------------------------------------
# Cluster scheduling
# ---------------------------------------------------------------------------

class TestCluster:
    def test_comm_sits_on_critical_path(self):
        from repro.distributed.cluster import SimCluster

        c = SimCluster(4)
        # Unbalanced compute: device 2 is the straggler.
        c.devices[2].advance(100.0)
        c.charge_comm("allgather", 10.0, 4000.0)
        # Barrier first (everyone to 100), then +10 everywhere.
        assert c.makespan_us == pytest.approx(110.0)
        for d in c.devices:
            assert d.clock_us == pytest.approx(110.0)

    def test_comm_records_excluded_from_kernel_aggregates(self):
        from repro.distributed.cluster import SimCluster

        c = SimCluster(2)
        c.charge_comm("broadcast", 5.0, 1000.0)
        for d in c.devices:
            assert d.profiler.launch_count == 0
            assert d.profiler.kernel_time_us == 0.0
            assert any(r.kind == "comm" for r in d.profiler.records)

    def test_reset_clears_everything(self):
        from repro.distributed.cluster import SimCluster

        c = SimCluster(2)
        c.devices[0].advance(50.0)
        c.charge_comm("allgather", 5.0, 100.0)
        c.reset()
        assert c.makespan_us == 0.0
        assert c.comm.stats.total_count == 0

    def test_metrics_shape(self):
        from repro.distributed.cluster import SimCluster

        m = SimCluster(2).metrics()
        for key in ("nparts", "kernel_launches", "h2d_bytes", "makespan_us", "comm"):
            assert key in m


# ---------------------------------------------------------------------------
# Backend equivalence
# ---------------------------------------------------------------------------

class TestMultiSimBackend:
    @pytest.fixture(autouse=True)
    def _fresh(self):
        reset_device()
        get_backend("cuda_sim").evict_all()
        yield

    def test_registered(self):
        from repro.backends.dispatch import available_backends

        assert "multi_sim" in available_backends()

    def test_p1_counters_match_cuda_sim(self):
        g = rmat(8, 8, seed=5)
        # Both backends record lazily and capture loops, so the one-device
        # cluster matches cuda_sim with every optimizer pass on — including
        # PageRank's fused fill/ewise/reduce chains.
        for algo in (
            lambda: gb.algorithms.bfs_levels(g, 0),
            lambda: gb.algorithms.pagerank(g, tol=0.0, max_iter=5),
        ):
            get_backend("cuda_sim").evict_all()
            dev = reset_device()
            with use_backend("cuda_sim"):
                expect = algo().to_lists()
            base_launches = dev.profiler.launch_count
            base_h2d = dev.profiler.h2d_bytes

            ms = multi_sim(1)
            ms.reset()
            with use_backend("multi_sim"):
                got = algo().to_lists()
            m = ms.metrics()
            assert got == expect
            assert m["kernel_launches"] == base_launches
            assert m["h2d_bytes"] == pytest.approx(base_h2d)
            assert m["comm"]["total_bytes"] == 0

    def test_p1_results_bitwise_cuda_sim(self):
        g = rmat(7, 6, seed=3, weighted=True)
        with use_backend("cuda_sim"):
            expect = gb.algorithms.sssp(g, 0)
        with use_backend(multi_sim(1)):
            got = gb.algorithms.sssp(g, 0)
        assert_same(got, expect, exact=True)

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_comm_charged_only_at_p_gt_1(self, nparts):
        g = rmat(8, 8, seed=5)
        ms = multi_sim(nparts)
        ms.reset()
        with use_backend("multi_sim"):
            gb.algorithms.bfs_levels(g, 0)
        m = ms.metrics()
        assert m["comm"]["total_bytes"] > 0
        assert m["nparts"] == nparts
        assert m["makespan_us"] > 0

    def test_inexact_push_demoted_to_pull(self):
        # A float PLUS-add push would fold partials in shard order; the
        # backend must demote it to the per-row (bit-exact) pull kernel.
        rng = np.random.default_rng(12)
        a = gb.Matrix.from_dense(random_dense_matrix(rng, 24, 24, density=0.2))
        # A very sparse input vector: the heuristic would pick push.
        u = gb.Vector.from_lists([3], [2.5], 24)

        def go():
            w = gb.Vector.sparse(gb.FP64, 24)
            return ops.mxv(w, a, u, PLUS_TIMES, direction="push")

        with use_backend("reference"):
            expect = go()
        with use_backend(multi_sim(4)):
            got = go()
        assert_same(got, expect, exact=True)  # bitwise: pull decomposes by row

    def test_exact_push_stays_push_and_matches(self):
        rng = np.random.default_rng(13)
        a = gb.Matrix.from_dense(random_dense_matrix(rng, 24, 24, density=0.2))
        u = gb.Vector.from_lists([3, 17], [2.5, 1.0], 24)

        def go():
            w = gb.Vector.sparse(gb.FP64, 24)
            return ops.mxv(w, a, u, MIN_PLUS, direction="push")

        with use_backend("reference"):
            expect = go()
        ms = multi_sim(4)
        ms.reset()
        with use_backend(ms):
            got = go()
        assert_same(got, expect, exact=True)
        # Push across shards is a frontier exchange, not an allgather.
        assert ms.metrics()["comm"]["counts"]["frontier_exchange"] >= 1

    @pytest.mark.parametrize("splitter", ["equal_rows", "degree_balanced"])
    def test_results_identical_across_splitters(self, splitter):
        g = rmat(8, 8, seed=9, weighted=True)
        with use_backend("reference"):
            expect = gb.algorithms.sssp(g, 0)
        with use_backend(multi_sim(3, splitter=splitter)):
            got = gb.algorithms.sssp(g, 0)
        assert_same(got, expect, exact=True)

    def test_configure_validates(self):
        from repro.exceptions import InvalidValueError

        ms = get_backend("multi_sim")
        with pytest.raises(InvalidValueError):
            ms.configure(nparts=0)
        with pytest.raises(InvalidValueError):
            ms.configure(splitter="bogus")
        ms.configure(nparts=2, splitter="equal_rows")

    def test_constructor_validates(self):
        from repro.backends.multi_sim.backend import MultiSimBackend
        from repro.exceptions import InvalidValueError

        with pytest.raises(InvalidValueError):
            MultiSimBackend(nparts=0)
        with pytest.raises(InvalidValueError):
            MultiSimBackend(splitter="bogus")
