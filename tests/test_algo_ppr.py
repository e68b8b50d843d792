"""Batched personalized PageRank and the msbfs serving extensions."""

import numpy as np
import pytest

import repro as gb
from repro.algorithms import bfs_levels_multi, ppr, ppr_batch, ppr_transition


def _rows_equal(m, i, vec):
    idx, vals = m.container.row(i)
    return np.array_equal(idx, vec.indices_array()) and np.array_equal(
        vals, vec.values_array()
    )


class TestPprBatch:
    def test_batch_rows_bit_identical_to_singles(self, backend):
        g = gb.generators.rmat(scale=6, edge_factor=6, seed=3)
        sources = [0, 5, 17, 5]  # duplicates allowed
        r = ppr_batch(g, sources, damping=0.85, iters=6)
        assert r.shape == (4, g.nrows)
        for i, s in enumerate(sources):
            single = ppr(g, s, damping=0.85, iters=6)
            assert _rows_equal(r, i, single), f"row {i} (source {s})"

    def test_rows_are_distributions(self, backend):
        g = gb.generators.rmat(scale=6, edge_factor=5, seed=9)
        r = ppr_batch(g, [1, 2, 3], iters=10)
        for i in range(3):
            _, vals = r.container.row(i)
            assert vals.sum() == pytest.approx(1.0, rel=1e-12)
            assert (vals >= 0).all()

    def test_damping_zero_is_pure_teleport(self, backend):
        # All mass stays at the source; propagated entries are explicit
        # zeros (GraphBLAS keeps stored zeros — no pattern assertions).
        g = gb.generators.path_graph(5)
        r = ppr_batch(g, [3], damping=0.0, iters=4)
        idx, vals = r.container.row(0)
        assert dict(zip(idx.tolist(), vals.tolist()))[3] == 1.0
        assert vals.sum() == 1.0

    def test_dangling_mass_returns_to_source(self, backend):
        # 0 -> 1, and 1 is dangling: its mass must park back at 0, not leak.
        g = gb.Matrix.from_lists([0], [1], [1.0], 2, 2)
        v = ppr(g, 0, damping=0.5, iters=8)
        vals = dict(zip(*v.to_lists()))
        assert sum(vals.values()) == pytest.approx(1.0, rel=1e-12)
        assert vals[0] > vals[1] > 0

    def test_cached_transition_identical(self, backend):
        g = gb.generators.rmat(scale=5, edge_factor=6, seed=4)
        t = ppr_transition(g)
        a = ppr_batch(g, [2, 7], iters=5, transition=t)
        b = ppr_batch(g, [2, 7], iters=5)
        assert a == b

    def test_transition_rows_sum_to_one(self, backend):
        g = gb.generators.erdos_renyi_gnp(20, 0.2, seed=3)
        m, d = ppr_transition(g)
        sums = m.to_dense().sum(axis=1)
        deg = g.row_degrees()
        for i in range(20):
            if deg[i]:
                assert sums[i] == pytest.approx(1.0)
            else:
                assert d.get(i, 0) == 1.0

    def test_empty_sources(self, backend):
        g = gb.generators.path_graph(4)
        r = ppr_batch(g, [])
        assert r.shape == (0, 4) and r.nvals == 0

    def test_validation(self, backend):
        g = gb.generators.path_graph(4)
        with pytest.raises(gb.InvalidValueError):
            ppr_batch(g, [0], damping=1.0)
        with pytest.raises(gb.InvalidValueError):
            ppr_batch(g, [0], damping=-0.1)
        with pytest.raises(gb.InvalidValueError):
            ppr_batch(g, [0], iters=0)
        with pytest.raises(gb.IndexOutOfBoundsError):
            ppr_batch(g, [4])
        with pytest.raises(gb.InvalidValueError):
            ppr_transition(gb.Matrix.sparse(gb.FP64, 2, 3))

    def test_source_concentrates_mass(self, backend):
        # Personalization: the source outranks every vertex it feeds.
        g = gb.generators.rmat(scale=6, edge_factor=4, seed=12)
        v = ppr(g, 0, damping=0.6, iters=12)
        vals = dict(zip(*v.to_lists()))
        assert vals[0] == max(vals.values())


class TestMsbfsServingExtensions:
    def test_push_equals_auto(self, backend):
        g = gb.generators.rmat(scale=5, edge_factor=6, seed=2)
        assert bfs_levels_multi(g, [0, 3], direction="push") == bfs_levels_multi(
            g, [0, 3], direction="auto"
        )

    def test_pull_cleanly_rejected(self, backend):
        g = gb.generators.path_graph(4)
        with pytest.raises(gb.NotImplementedInBackendError):
            bfs_levels_multi(g, [0], direction="pull")

    def test_bad_direction_rejected(self, backend):
        g = gb.generators.path_graph(4)
        with pytest.raises(gb.InvalidValueError):
            bfs_levels_multi(g, [0], direction="sideways")

    def test_negative_max_level_rejected(self, backend):
        g = gb.generators.path_graph(4)
        with pytest.raises(gb.InvalidValueError):
            bfs_levels_multi(g, [0], max_level=-1)

    def test_max_level_zero_is_sources_only(self, backend):
        g = gb.generators.path_graph(5)
        levels = bfs_levels_multi(g, [1, 3], max_level=0)
        assert levels.nvals == 2
        assert levels.get(0, 1) == 0 and levels.get(1, 3) == 0

    def test_max_level_prefix_of_full_run(self, backend):
        g = gb.generators.rmat(scale=6, edge_factor=5, seed=6)
        sources = [0, 9, 21]
        full = bfs_levels_multi(g, sources)
        for bound in (1, 2, 3):
            capped = bfs_levels_multi(g, sources, max_level=bound)
            ri, ci, vv = full.to_lists()
            keep = np.asarray(vv) <= bound
            expect = gb.Matrix.from_lists(
                np.asarray(ri)[keep],
                np.asarray(ci)[keep],
                np.asarray(vv)[keep],
                len(sources),
                g.nrows,
                gb.INT64,
            )
            assert capped == expect

    def test_max_level_beyond_diameter_is_full(self, backend):
        g = gb.generators.path_graph(6)
        assert bfs_levels_multi(g, [0], max_level=50) == bfs_levels_multi(g, [0])
