"""Incremental view tests: answers, caching, and fallback decisions."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs_levels
from repro.algorithms.components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.core.matrix import Matrix
from repro.exceptions import IndexOutOfBoundsError, InvalidValueError
from repro.gpu.device import get_device
from repro.streaming import (
    DynamicGraph,
    EdgeBatch,
    IncrementalBFS,
    IncrementalCC,
    IncrementalPageRank,
    random_edge_batch,
)
from repro.streaming.incremental import FALLBACK_FRACTION, FALLBACK_MIN_OPS
from repro.testing.equivalence import assert_same, same
from repro.testing.executor import backend_session
from repro.types import FP64


def _chain(n: int) -> Matrix:
    rows = np.arange(n - 1, dtype=np.int64)
    return Matrix.from_lists(rows, rows + 1, np.ones(n - 1), n, n, FP64)


def _random_graph(seed: int, n: int = 24, density: float = 0.12) -> Matrix:
    rng = np.random.default_rng(seed)
    return Matrix.from_dense((rng.random((n, n)) < density).astype(float), FP64)


class TestIncrementalBFS:
    def test_source_bounds_checked(self):
        g = DynamicGraph(_chain(4))
        with pytest.raises(IndexOutOfBoundsError):
            IncrementalBFS(g, 4)

    def test_insert_updates_are_exact(self):
        g = DynamicGraph(_random_graph(1))
        view = IncrementalBFS(g, 0)
        view.query()
        for step in range(6):
            g.apply(random_edge_batch(step, g.n, inserts=4))
            got = view.query()
            assert_same(got, bfs_levels(g.snapshot(), 0), exact=True)
        assert view.stats.full_recomputes == 1
        assert view.stats.incremental_updates == 6

    def test_insert_shortens_level(self):
        g = DynamicGraph(_chain(8))
        view = IncrementalBFS(g, 0)
        lv0 = view.query()
        assert lv0[7] == 7
        g.insert_edges([0], [6], [1.0])
        lv1 = view.query()
        assert lv1[6] == 1 and lv1[7] == 2
        assert view.stats.incremental_updates == 1

    def test_insert_reaches_unreachable(self):
        m = Matrix.from_lists([0], [1], [1.0], 4, 4, FP64)
        g = DynamicGraph(m)
        view = IncrementalBFS(g, 0)
        assert view.query().get(3) is None
        g.insert_edges([1, 2], [2, 3], [1.0, 1.0])
        lv = view.query()
        assert lv[2] == 2 and lv[3] == 3

    def test_irrelevant_delete_stays_incremental(self):
        g = DynamicGraph(_chain(6))
        view = IncrementalBFS(g, 0)
        view.query()
        # (0,3) isn't an edge; deleting it can't change any level.
        g.delete_edges([0], [3])
        view.query()
        assert view.stats.delete_fallbacks == 0
        assert view.stats.full_recomputes == 1

    def test_tree_edge_delete_forces_full(self):
        g = DynamicGraph(_chain(6))
        view = IncrementalBFS(g, 0)
        view.query()
        g.delete_edges([2], [3])  # lv[3] == lv[2] + 1: potential tree edge
        got = view.query()
        assert view.stats.delete_fallbacks == 1
        assert view.stats.full_recomputes == 2
        assert_same(got, bfs_levels(g.snapshot(), 0), exact=True)
        assert got.get(3) is None  # chain is severed

    def test_cached_hit_on_unchanged_graph(self):
        g = DynamicGraph(_chain(6))
        view = IncrementalBFS(g, 0)
        view.query()
        view.query()
        assert view.stats.cached_hits == 1


class TestIncrementalCC:
    def test_insert_updates_are_exact(self):
        g = DynamicGraph(_random_graph(2))
        view = IncrementalCC(g)
        view.query()
        for step in range(6):
            g.apply(random_edge_batch(100 + step, g.n, inserts=3))
            assert_same(view.query(), connected_components(g.snapshot()), exact=True)
        assert view.stats.full_recomputes == 1

    def test_merge_two_components(self):
        # Min-label propagation adopts from OUT-neighbours (mxv MIN_SECOND),
        # so inserting 2→1 lets vertex 2 adopt component 1's smaller label.
        m = Matrix.from_lists([0, 2], [1, 3], [1.0, 1.0], 4, 4, FP64)
        g = DynamicGraph(m)
        view = IncrementalCC(g)
        labels = view.query()
        assert labels[2] != labels[1]
        g.insert_edges([2], [1], [1.0])
        labels = view.query()
        assert view.stats.incremental_updates == 1
        assert labels[2] == labels[1]
        assert_same(labels, connected_components(g.snapshot()), exact=True)

    def test_any_effective_delete_forces_full(self):
        g = DynamicGraph(_chain(5))
        view = IncrementalCC(g)
        view.query()
        g.delete_edges([1], [2])
        got = view.query()
        assert view.stats.delete_fallbacks == 1
        assert_same(got, connected_components(g.snapshot()), exact=True)


class TestIncrementalPageRank:
    def test_warm_restart_matches_cold(self):
        g = DynamicGraph(_random_graph(3))
        view = IncrementalPageRank(g, tol=1e-12, max_iter=300)
        view.query()
        for step in range(4):
            g.apply(random_edge_batch(200 + step, g.n, inserts=4, deletes=2,
                                      existing=g.edges()))
            got = view.query()
            cold = pagerank(g.snapshot(), tol=1e-12, max_iter=300)
            assert same(got, cold, exact=False, rtol=1e-6)
        assert view.stats.full_recomputes == 1
        assert view.stats.incremental_updates == 4
        assert view.stats.delete_fallbacks == 0  # deletes survive warm restart

    def test_warm_start_size_validated(self):
        m = _chain(5)
        from repro.core.vector import Vector

        with pytest.raises(InvalidValueError):
            pagerank(m, warm_start=Vector.sparse(FP64, 4))


class TestRecomputePolicy:
    def test_size_fallback_triggers(self):
        g = DynamicGraph(_random_graph(4, n=16, density=0.3))
        view = IncrementalBFS(g, 0)
        view.query()
        batch = random_edge_batch(9, g.n, inserts=64).normalized()
        assert len(batch) > max(FALLBACK_MIN_OPS, FALLBACK_FRACTION * g.nvals())
        g.apply(batch)
        got = view.query()
        assert view.stats.size_fallbacks == 1
        assert view.stats.full_recomputes == 2
        assert_same(got, bfs_levels(g.snapshot(), 0), exact=True)

    def test_detached_view_needs_manual_invalidate(self):
        g = DynamicGraph(_chain(6))
        view = IncrementalBFS(g, 0)
        view.query()
        g.detach(view)
        g.insert_edges([0], [5], [1.0])
        # Detached views stop receiving batch notifications; the caller
        # owns invalidation from that point on.
        view.invalidate()
        got = view.query()
        assert view.stats.full_recomputes == 2
        assert_same(got, bfs_levels(g.snapshot(), 0), exact=True)


class TestViewsAcrossBackends:
    def test_mixed_churn_matches_oracle(self, backend):
        g = DynamicGraph(_random_graph(5))
        bfs = IncrementalBFS(g, 0)
        cc = IncrementalCC(g)
        pr = IncrementalPageRank(g, tol=1e-12, max_iter=300)
        for step in range(4):
            g.apply(
                random_edge_batch(300 + step, g.n, inserts=5, deletes=2,
                                  existing=g.edges())
            )
            snap = g.snapshot()
            assert_same(bfs.query(), bfs_levels(snap, 0), exact=True)
            assert_same(cc.query(), connected_components(snap), exact=True)
            assert same(
                pr.query(), pagerank(snap, tol=1e-12, max_iter=300),
                exact=False, rtol=1e-6,
            )


# One refresh rule on every view: cached, full, incremental, and the two
# fallbacks, scripted on cuda_sim so a cached query can be seen to launch
# nothing.
_PR_KW = dict(tol=1e-12, max_iter=300)
_VIEWS = {
    "bfs": (lambda g: IncrementalBFS(g, 0), lambda m: bfs_levels(m, 0)),
    "cc": (IncrementalCC, connected_components),
    "pagerank": (
        lambda g: IncrementalPageRank(g, **_PR_KW), lambda m: pagerank(m, **_PR_KW)
    ),
}


class TestRefreshRule:
    @pytest.mark.parametrize("algo", sorted(_VIEWS))
    def test_every_path_of_the_rule(self, algo):
        make_view, oracle = _VIEWS[algo]
        n = 40
        ring = np.arange(n, dtype=np.int64)
        with backend_session("cuda_sim"):
            g = DynamicGraph(
                Matrix.from_lists(ring, (ring + 1) % n, np.ones(n), n, n, FP64)
            )
            g.apply(random_edge_batch(1, n, inserts=40))  # chords, pre-view
            view = make_view(g)
            prof = get_device().profiler
            counts = dict(full_recomputes=0, incremental_updates=0,
                          cached_hits=0, delete_fallbacks=0, size_fallbacks=0)

            def step(**moved):
                for key, by in moved.items():
                    counts[key] += by
                launches = prof.launch_count
                got = view.query()
                if "cached_hits" in moved:
                    assert prof.launch_count == launches, "a cached query launched"
                assert view.stats.as_dict() == counts
                want = oracle(g.snapshot())
                if algo == "pagerank":
                    assert same(got, want, exact=False, rtol=1e-6)
                else:
                    assert_same(got, want, exact=True)

            step(full_recomputes=1)
            step(cached_hits=1)

            g.insert_edges([3, 17], [29, 8], [1.0, 1.0])
            step(incremental_updates=1)

            # The size fallback counts only ops pending since the last
            # query: a batch of exactly the threshold stays incremental.
            limit = max(FALLBACK_MIN_OPS, FALLBACK_FRACTION * g.nvals())
            k = int(limit)
            assert k == limit and k < n
            rows = np.arange(k, dtype=np.int64)
            g.insert_edges(rows, (rows * 3 + 11) % n, np.ones(k))
            step(incremental_updates=1)

            # (0, v) with lv[v] == 1 is a present BFS tree edge.
            lv = bfs_levels(g.snapshot(), 0)
            v = int(lv.indices_array()[lv.values_array() == 1][0])
            assert g.has_edge(0, v)
            g.delete_edges([0], [v])
            if algo == "pagerank":
                step(incremental_updates=1)  # warm restart absorbs deletes
            else:
                step(full_recomputes=1, delete_fallbacks=1)

            rows = np.arange(k + 1, dtype=np.int64)
            g.insert_edges(rows, (rows * 7 + 5) % n, np.ones(k + 1))
            step(full_recomputes=1, size_fallbacks=1)
