"""A symmetric matrix is its own transpose.

``CSRMatrix.symmetric`` records that A equals Aᵀ exactly, values included.
Every generator's undirected output has it; ``copy``/``astype`` carry it;
any mutation clears it with the aux cache.  Consumers of Aᵀ read A itself:
no host counting sort, no ``transpose_countsort`` launch on cuda_sim, no
``transpose_shard``/``all_to_all`` on multi_sim, ``ops.transpose`` copies A
into C without calling the backend, and the lazy direction pass leaves BFS
hops to the runtime push/pull heuristic.  Only charges and direction
choices change; values are bit-identical to cpu.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro import generators
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.gpu.device import get_device, reset_device
from repro.policy import policy
from repro.streaming import DynamicGraph
from repro.types import FP32, INT64

UNDIRECTED = {
    "rmat": lambda: generators.rmat(6, 4, seed=1, weighted=True),
    "erdos_renyi_gnp": lambda: generators.erdos_renyi_gnp(40, 0.1, seed=1, weighted=True),
    "erdos_renyi_gnm": lambda: generators.erdos_renyi_gnm(40, 90, seed=1, weighted=True),
    "watts_strogatz": lambda: generators.watts_strogatz(40, 4, 0.2, seed=1, weighted=True),
    "barabasi_albert": lambda: generators.barabasi_albert(40, 2, seed=1, weighted=True),
    "stochastic_block_model": lambda: generators.stochastic_block_model(
        [20, 20], 0.3, 0.05, seed=1, weighted=True
    ),
    "grid_2d": lambda: generators.grid_2d(5, 6, weighted=True, seed=1),
    "torus_2d": lambda: generators.torus_2d(5, 6, weighted=True, seed=1),
    "path_graph": lambda: generators.path_graph(9, weighted=True, seed=1),
    "cycle_graph": lambda: generators.cycle_graph(9, weighted=True, seed=1),
    "complete_graph": lambda: generators.complete_graph(7, weighted=True, seed=1),
    "star_graph": lambda: generators.star_graph(9, weighted=True, seed=1),
}
DIRECTED = {
    "rmat": lambda: generators.rmat(6, 4, seed=1, weighted=True, directed=True),
    "erdos_renyi_gnp": lambda: generators.erdos_renyi_gnp(
        40, 0.1, seed=1, weighted=True, directed=True
    ),
    "erdos_renyi_gnm": lambda: generators.erdos_renyi_gnm(
        40, 90, seed=1, weighted=True, directed=True
    ),
}


def _assert_is_transpose(t: CSRMatrix, a: CSRMatrix) -> None:
    t.validate()
    np.testing.assert_array_equal(t.to_dense(), a.to_dense().T)


def test_every_generator_is_covered():
    assert set(UNDIRECTED) == set(generators.__all__) - {"finalize_edges", "rmat_edges"}


@pytest.mark.parametrize("name", sorted(UNDIRECTED))
def test_undirected_generator_output_is_its_own_transpose(name):
    a = UNDIRECTED[name]().container
    assert a.symmetric
    assert a.cached_transpose() is a
    dense = a.to_dense()
    np.testing.assert_array_equal(dense, dense.T)


@pytest.mark.parametrize("name", sorted(DIRECTED))
def test_directed_generator_output_gets_a_real_transpose(name):
    a = DIRECTED[name]().container
    assert not a.symmetric
    t = a.cached_transpose()
    assert t is not a
    _assert_is_transpose(t, a)


class TestPropagation:
    def test_copy_and_astype_keep_it(self):
        g = generators.rmat(6, 4, seed=3, weighted=True)
        for derived in (
            g.container.copy(),
            g.dup().container,
            g.container.astype(FP32),
            g.container.astype(INT64),
        ):
            assert derived.symmetric
            assert derived.cached_transpose() is derived
        directed = generators.rmat(6, 4, seed=3, directed=True).container
        assert not directed.copy().symmetric
        assert not directed.astype(INT64).symmetric

    def test_overwriting_set_element_drops_it(self):
        g = generators.rmat(6, 4, seed=4, weighted=True)
        a = g.container
        rows, cols, _ = g.to_lists()
        g.set_element(rows[0], cols[0], 1234.0)  # in place: bumps the version
        assert g.container is a and not a.symmetric
        t = a.cached_transpose()
        assert t is not a
        _assert_is_transpose(t, a)
        _assert_is_transpose(g.csc().tcsr, a)

    def test_inserting_set_element_drops_it(self):
        g = generators.path_graph(6)
        g.set_element(0, 5, 1.0)  # a new entry: a new container
        a = g.container
        assert not a.symmetric
        _assert_is_transpose(a.cached_transpose(), a)

    def test_streaming_compaction_drops_it(self):
        m = generators.cycle_graph(8)
        a = m.container
        m.csc()  # a column view taken before the mutation
        g = DynamicGraph(m)
        g.insert_edges([0], [4], [1.0])
        assert a.symmetric  # the delta is pending, the base is untouched
        assert g.compact()
        assert g.matrix.container is a and not a.symmetric
        _assert_is_transpose(a.cached_transpose(), a)
        _assert_is_transpose(g.matrix.csc().tcsr, a)


def _kernels(dev) -> set:
    return {name.split("[", 1)[0] for name in dev.profiler.by_kernel(expand_replays=True)}


@pytest.mark.parametrize("directed", [False, True])
def test_cuda_sim_bfs_pulls_through_the_csr(directed):
    g = generators.rmat(8, 8, seed=13, directed=directed)
    with use_backend("cpu"):
        expect = gb.algorithms.bfs_levels(g, 0).to_lists()
    be = get_backend("cuda_sim")
    be.evict_all()
    reset_device()
    with use_backend(be):
        got = gb.algorithms.bfs_levels(g, 0).to_lists()
    assert got == expect
    names = _kernels(get_device())
    assert "transpose_countsort" not in names
    # Undirected: the runtime heuristic pulls the heavy hops through A.
    # Directed: the lazy direction pass pins every hop to push.
    assert ("spmv_pull_fused" in names) is not directed


ALGOS = {
    "bfs": lambda g: gb.algorithms.bfs_levels(g, 0),
    "sssp": lambda g: gb.algorithms.sssp(g, 0),
    "pagerank": lambda g: gb.algorithms.pagerank(g, max_iter=10),
}


@pytest.fixture(scope="module")
def weighted_graph():
    return generators.rmat(8, 8, seed=5, weighted=True)


# multi_sim records under "auto", so that case runs with the lazy tape on.
@pytest.mark.parametrize("lazy", [pytest.param("auto", id="on"), "off"])
@pytest.mark.parametrize("nparts", [2, 4])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_multi_sim_matches_cpu_bit_for_bit(weighted_graph, algo, nparts, lazy):
    with use_backend("cpu"):
        expect = ALGOS[algo](weighted_graph).to_lists()
    ms = get_backend("multi_sim").configure(nparts=nparts, splitter="equal_rows")
    ms.reset()
    with policy(lazy=lazy), use_backend(ms):
        got = ALGOS[algo](weighted_graph).to_lists()
    assert got == expect


@pytest.mark.parametrize("nparts", [2, 4])
def test_multi_sim_pagerank_builds_no_transpose(weighted_graph, nparts):
    ms = get_backend("multi_sim").configure(nparts=nparts, splitter="equal_rows")
    ms.reset()
    with use_backend(ms):
        gb.algorithms.pagerank(weighted_graph, max_iter=10)
    names = set().union(*(_kernels(d) for d in ms.cluster.devices))
    assert "transpose_shard" not in names
    assert ms.metrics()["comm"]["counts"]["all_to_all"] == 0


def _transpose(a: gb.Matrix):
    c = gb.Matrix.sparse(a.type, a.ncols, a.nrows)
    ops.transpose(c, a)
    assert c.container is not a.container  # C never aliases A
    return c.to_lists()


def _transpose_subject(symmetric: bool) -> gb.Matrix:
    """A fresh matrix per backend: a transpose memo must not carry over."""
    return generators.cycle_graph(64) if symmetric else DIRECTED["rmat"]()


@pytest.mark.parametrize("symmetric", [True, False])
def test_cuda_sim_ops_transpose_of_a_symmetric_matrix_launches_nothing(symmetric):
    with use_backend("cpu"):
        expect = _transpose(_transpose_subject(symmetric))
    be = get_backend("cuda_sim")
    be.evict_all()
    reset_device()
    with use_backend(be):
        got = _transpose(_transpose_subject(symmetric))
    assert got == expect
    assert ("transpose_countsort" in _kernels(get_device())) is not symmetric


@pytest.mark.parametrize("symmetric", [True, False])
def test_multi_sim_ops_transpose_of_a_symmetric_matrix_shuffles_nothing(symmetric):
    with use_backend("cpu"):
        expect = _transpose(_transpose_subject(symmetric))
    ms = get_backend("multi_sim").configure(nparts=2, splitter="equal_rows")
    ms.reset()
    with use_backend(ms):
        got = _transpose(_transpose_subject(symmetric))
    assert got == expect
    names = set().union(*(_kernels(d) for d in ms.cluster.devices))
    assert ("transpose_shard" in names) is not symmetric
    assert (ms.metrics()["comm"]["counts"]["all_to_all"] == 0) is symmetric
