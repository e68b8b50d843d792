"""Label propagation, modularity, and greedy coloring."""

import networkx as nx
import numpy as np
import pytest

import repro as gb
from repro.algorithms import (
    greedy_color,
    label_propagation,
    modularity,
    verify_coloring,
)


def two_cliques(k=6):
    """Two k-cliques joined by a single bridge edge."""
    G1 = nx.complete_graph(k)
    G2 = nx.relabel_nodes(nx.complete_graph(k), {i: i + k for i in range(k)})
    G = nx.compose(G1, G2)
    G.add_edge(0, k)
    r = [e[0] for e in G.edges()] + [e[1] for e in G.edges()]
    c = [e[1] for e in G.edges()] + [e[0] for e in G.edges()]
    return gb.Matrix.from_lists(r, c, [1.0] * len(r), 2 * k, 2 * k), G


class TestLabelPropagation:
    def test_two_cliques_found(self, backend):
        g, _ = two_cliques()
        labels = label_propagation(g)
        lv = labels.to_dense(-1)
        assert len(set(lv[:6])) == 1 and len(set(lv[6:])) == 1
        assert lv[0] != lv[6]

    def test_labels_canonical_minimum(self, backend):
        g, _ = two_cliques()
        lv = label_propagation(g).to_dense(-1)
        for c in np.unique(lv):
            assert c == np.flatnonzero(lv == c).min()

    def test_empty_graph_singletons(self, backend):
        g = gb.Matrix.sparse(gb.FP64, 5, 5)
        lv = label_propagation(g).to_dense(-1)
        np.testing.assert_array_equal(lv, np.arange(5))

    def test_complete_graph_one_community(self, backend):
        g = gb.generators.complete_graph(7)
        lv = label_propagation(g).to_dense(-1)
        assert len(set(lv.tolist())) == 1

    def test_requires_square(self, backend):
        with pytest.raises(gb.InvalidValueError):
            label_propagation(gb.Matrix.sparse(gb.FP64, 2, 3))

    def test_deterministic(self, backend):
        g = gb.generators.watts_strogatz(40, 4, 0.1, seed=4)
        assert label_propagation(g) == label_propagation(g)


class TestModularity:
    def test_matches_networkx(self, backend):
        g, G = two_cliques()
        labels = label_propagation(g)
        lv = labels.to_dense(-1)
        communities = [
            set(np.flatnonzero(lv == c).tolist()) for c in np.unique(lv)
        ]
        expected = nx.community.modularity(G, communities)
        assert modularity(g, labels) == pytest.approx(expected)

    def test_single_community_negative_or_zero(self, backend):
        g = gb.generators.complete_graph(5)
        labels = gb.Vector.from_lists(range(5), [0] * 5, 5, gb.INT64)
        assert modularity(g, labels) == pytest.approx(0.0, abs=1e-12)

    def test_empty_graph(self, backend):
        g = gb.Matrix.sparse(gb.FP64, 3, 3)
        labels = gb.Vector.from_lists(range(3), range(3), 3, gb.INT64)
        assert modularity(g, labels) == 0.0

    def test_good_split_beats_bad_split(self, backend):
        g, _ = two_cliques()
        good = gb.Vector.from_lists(range(12), [0] * 6 + [1] * 6, 12, gb.INT64)
        bad = gb.Vector.from_lists(range(12), [i % 2 for i in range(12)], 12, gb.INT64)
        assert modularity(g, good) > modularity(g, bad)


class TestGreedyColoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_on_random_graphs(self, backend, seed):
        g = gb.generators.erdos_renyi_gnp(30, 0.15, seed=seed)
        colors = greedy_color(g, seed=seed)
        assert verify_coloring(g, colors)

    def test_bipartite_two_colors(self, backend):
        g = gb.generators.path_graph(10)
        colors = greedy_color(g, seed=0)
        assert verify_coloring(g, colors)
        assert len(set(colors.to_dense(-1).tolist())) <= 3

    def test_complete_graph_needs_n(self, backend):
        g = gb.generators.complete_graph(5)
        colors = greedy_color(g, seed=1)
        assert verify_coloring(g, colors)
        assert len(set(colors.to_dense(-1).tolist())) == 5

    def test_empty_graph_one_color(self, backend):
        g = gb.Matrix.sparse(gb.FP64, 4, 4)
        colors = greedy_color(g, seed=0)
        assert verify_coloring(g, colors)
        assert set(colors.to_dense(-1).tolist()) == {0}

    def test_verify_rejects_monochromatic_edge(self, backend):
        g = gb.generators.path_graph(3)
        bad = gb.Vector.from_lists(range(3), [0, 0, 1], 3, gb.INT64)
        assert not verify_coloring(g, bad)

    def test_verify_rejects_partial(self, backend):
        g = gb.generators.path_graph(3)
        partial = gb.Vector.from_lists([0], [0], 3, gb.INT64)
        assert not verify_coloring(g, partial)


class TestBinaryIO:
    def test_matrix_roundtrip(self, tmp_path):
        g = gb.generators.rmat(scale=6, edge_factor=4, seed=1, weighted=True)
        p = tmp_path / "g.npz"
        gb.io.save_matrix(g, p)
        assert gb.io.load_matrix(p) == g

    def test_vector_roundtrip(self, tmp_path):
        v = gb.Vector.from_lists([3, 9], [1.5, -2.5], 16)
        p = tmp_path / "v.npz"
        gb.io.save_vector(v, p)
        assert gb.io.load_vector(p) == v

    def test_type_preserved(self, tmp_path):
        m = gb.Matrix.from_lists([0], [1], [7], 2, 2, gb.INT32)
        p = tmp_path / "m.npz"
        gb.io.save_matrix(m, p)
        assert gb.io.load_matrix(p).type is gb.INT32

    def test_wrong_magic_rejected(self, tmp_path):
        v = gb.Vector.from_lists([0], [1.0], 2)
        p = tmp_path / "v.npz"
        gb.io.save_vector(v, p)
        with pytest.raises(gb.InvalidValueError):
            gb.io.load_matrix(p)
