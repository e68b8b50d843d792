"""PageRank, triangle counting, connected components vs networkx."""

import networkx as nx
import numpy as np
import pytest

import repro as gb
from repro.algorithms import (
    component_count,
    connected_components,
    pagerank,
    triangle_count,
    triangles_per_vertex,
)


def to_nx_undirected(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.nrows))
    r, c, _ = g.to_lists()
    G.add_edges_from(zip(r, c))
    return G


class TestPageRank:
    def test_ranks_sum_to_one(self, backend):
        g = gb.generators.erdos_renyi_gnp(30, 0.15, seed=1)
        r = pagerank(g)
        assert float(np.sum(r.to_dense())) == pytest.approx(1.0, abs=1e-8)

    def test_matches_networkx(self, backend):
        g = gb.generators.erdos_renyi_gnp(40, 0.1, seed=2)
        G = nx.DiGraph()
        G.add_nodes_from(range(40))
        rr, cc, _ = g.to_lists()
        G.add_edges_from(zip(rr, cc))
        expected = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=500)
        r = pagerank(g, tol=1e-14, max_iter=500)
        for v in range(40):
            assert r.get(v, 0.0) == pytest.approx(expected[v], abs=1e-9)

    def test_dangling_nodes_handled(self, backend):
        # Vertex 2 has no out-edges.
        g = gb.Matrix.from_lists([0, 1], [1, 2], [1.0, 1.0], 3, 3)
        r = pagerank(g)
        assert float(np.sum(r.to_dense())) == pytest.approx(1.0, abs=1e-8)
        assert r.get(2) > r.get(0)

    def test_star_center_dominates(self, backend):
        g = gb.generators.star_graph(10)
        r = pagerank(g)
        center = r.get(0)
        assert all(center > r.get(i) for i in range(1, 10))

    def test_symmetric_graph_uniform_on_regular(self, backend):
        g = gb.generators.cycle_graph(8)
        r = pagerank(g)
        vals = r.to_dense()
        np.testing.assert_allclose(vals, 1.0 / 8, atol=1e-10)

    def test_damping_validation(self, backend):
        g = gb.generators.cycle_graph(4)
        with pytest.raises(gb.InvalidValueError):
            pagerank(g, damping=1.5)

    def test_empty_graph(self, backend):
        assert pagerank(gb.Matrix.sparse(gb.FP64, 0, 0)).size == 0


class TestTriangles:
    def test_single_triangle(self, backend):
        g = gb.generators.complete_graph(3)
        assert triangle_count(g) == 1

    def test_k4_has_four(self, backend):
        assert triangle_count(gb.generators.complete_graph(4)) == 4

    def test_triangle_free(self, backend):
        assert triangle_count(gb.generators.cycle_graph(5)) == 0
        assert triangle_count(gb.generators.star_graph(6)) == 0

    def test_matches_networkx(self, backend):
        g = gb.generators.erdos_renyi_gnp(40, 0.15, seed=5)
        G = to_nx_undirected(g)
        assert triangle_count(g) == sum(nx.triangles(G).values()) // 3

    def test_per_vertex_matches_networkx(self, backend):
        g = gb.generators.erdos_renyi_gnp(30, 0.2, seed=6)
        G = to_nx_undirected(g)
        per = triangles_per_vertex(g)
        expected = nx.triangles(G)
        for v in range(30):
            assert per.get(v, 0) == expected[v]

    def test_undirected_fixture(self, backend, undirected_graph):
        assert triangle_count(undirected_graph) == 1

    def test_requires_square(self, backend):
        with pytest.raises(gb.InvalidValueError):
            triangle_count(gb.Matrix.sparse(gb.FP64, 2, 3))


class TestConnectedComponents:
    def test_two_components(self, backend):
        g = gb.Matrix.from_lists(
            [0, 1, 2, 3], [1, 0, 3, 2], [1.0] * 4, 5, 5
        )
        labels = connected_components(g)
        assert labels.get(0) == labels.get(1) == 0
        assert labels.get(2) == labels.get(3) == 2
        assert labels.get(4) == 4
        assert component_count(g) == 3

    def test_fully_connected(self, backend):
        g = gb.generators.complete_graph(6)
        assert component_count(g) == 1

    def test_empty_graph_all_singletons(self, backend):
        g = gb.Matrix.sparse(gb.FP64, 4, 4)
        assert component_count(g) == 4

    def test_matches_networkx(self, backend):
        g = gb.generators.erdos_renyi_gnp(60, 0.03, seed=7)
        G = to_nx_undirected(g)
        assert component_count(g) == nx.number_connected_components(G)

    def test_labels_are_component_minima(self, backend):
        g = gb.generators.erdos_renyi_gnp(30, 0.1, seed=8)
        G = to_nx_undirected(g)
        labels = connected_components(g)
        for comp in nx.connected_components(G):
            m = min(comp)
            for v in comp:
                assert labels.get(v) == m

    def test_path_graph_single_component(self, backend):
        g = gb.generators.path_graph(50)
        labels = connected_components(g)
        assert np.all(labels.to_dense(-1) == 0)
