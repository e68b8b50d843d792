"""Compaction carries Aᵀ.

Once a backend holds Aᵀ (the memo, or A itself when A is symmetric), a
streaming compaction merges the transposed delta into it in the same
launch as A's merge and seats the result as the new version's memo, so no
read after a compaction rebuilds Aᵀ.  The carried memo must be exactly the
transpose of the compacted A, and the superseded memo must leave the
device.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generators
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.semiring import MIN_PLUS
from repro.core.vector import Vector
from repro.gpu.device import get_device
from repro.streaming import DynamicGraph, EdgeBatch, random_edge_batch
from repro.testing.executor import backend_session
from repro.types import BOOL, FP64, INT64

SPECS = ["cpu", "cuda_sim", "multi_sim:2:equal_rows"]


def _assert_transpose(t: CSRMatrix, a: CSRMatrix) -> None:
    want = a.transpose()
    assert t.shape == want.shape
    np.testing.assert_array_equal(t.indptr, want.indptr)
    np.testing.assert_array_equal(t.indices, want.indices)
    assert t.values.dtype == want.values.dtype == a.values.dtype
    np.testing.assert_array_equal(t.values, want.values)


def test_transposed_batch_is_normalized():
    b = EdgeBatch.from_ops([
        ("insert", 0, 3, 1), ("delete", 2, 1, 0), ("insert", 1, 3, 4), ("insert", 3, 0, 2),
    ]).normalized()
    t = b.transposed()
    assert list(zip(t.rows.tolist(), t.cols.tolist())) == [(0, 3), (1, 2), (3, 0), (3, 1)]
    assert t.lookup(3, 0) == (True, 1.0) and t.lookup(1, 2) == (False, 0.0)
    back = t.transposed()
    for x, y in ((back.rows, b.rows), (back.cols, b.cols), (back.vals, b.vals)):
        np.testing.assert_array_equal(x, y)


@st.composite
def _programs(draw):
    """A small base graph and a few batches of ops on it.

    Batches draw from few vertices, so an op often repeats an edge of its
    batch or deletes an edge that is absent.
    """
    n = draw(st.integers(2, 9))
    base = generators.erdos_renyi_gnp(
        n,
        draw(st.sampled_from([0.0, 0.3, 0.7])),
        seed=draw(st.integers(0, 2**16)),
        weighted=True,
        directed=draw(st.booleans()),
        typ=draw(st.sampled_from([FP64, INT64, BOOL])),
    )
    vertex = st.integers(0, n - 1)
    op = st.tuples(st.sampled_from(["insert", "delete"]), vertex, vertex, st.integers(0, 9))
    batches = draw(st.lists(st.lists(op, min_size=1, max_size=8), min_size=1, max_size=4))
    return base, [EdgeBatch.from_ops(ops_) for ops_ in batches]


@pytest.mark.parametrize("spec", SPECS)
@given(_programs())
@settings(max_examples=40, deadline=None)
def test_carried_transpose_is_the_transpose_after_every_batch(spec, program):
    base, batches = program
    with backend_session(spec) as be:
        g = DynamicGraph(base.dup())
        a = g.matrix.container
        be.transpose(a)  # the backend holds Aᵀ before the first batch
        for batch in batches:
            g.apply(batch)
            g.compact()
            t = a.known_transpose()
            assert t is not None, "a held transpose was dropped"
            _assert_transpose(t, a)
            assert a.cached_transpose() is t  # seated as the memo
            assert t.known_transpose() is a  # and linked back


def test_repeated_ops_and_absent_deletes_are_carried():
    # Insert, delete and re-insert one edge; delete an edge that is absent.
    base = generators.erdos_renyi_gnp(6, 0.5, seed=3, weighted=True, directed=True, typ=INT64)
    with backend_session("cuda_sim") as be:
        g = DynamicGraph(base)
        a = base.container
        be.transpose(a)
        g.apply(EdgeBatch.from_ops([
            ("insert", 1, 4, 7), ("delete", 1, 4, 0), ("insert", 1, 4, 9),
            ("delete", 5, 5, 0), ("insert", 2, 2, 3), ("insert", 2, 2, 5),
        ]))
        g.compact()
        t = a.known_transpose()
        _assert_transpose(t, a)
        assert t.values.dtype == np.int64
        assert a.get(1, 4) == 9 and a.get(2, 2) == 5 and a.get(5, 5) is None


def _kernel_counts(devices) -> dict:
    out: dict = {}
    for dev in devices:
        for name, agg in dev.profiler.by_kernel(expand_replays=True).items():
            key = name.split("[", 1)[0]
            out[key] = out.get(key, 0) + int(agg["count"])
    return out


@pytest.mark.parametrize("directed", [False, True], ids=["symmetric", "directed"])
def test_push_mxv_after_each_compaction_builds_transpose_at_most_once(directed):
    """A push ``mxv`` reads Aᵀ.  After N batches, each followed by one, a
    symmetric base has launched no transpose build and a directed base at
    most one (before Aᵀ is known, the first compaction has none to carry).
    The resident set never holds two transposes of the graph."""
    base = generators.rmat(7, 8, seed=5, directed=directed)
    n = base.nrows
    with backend_session("cuda_sim") as be:
        g = DynamicGraph(base)
        a = base.container
        u = Vector.from_lists([0, 3], [1.0, 1.0], n, FP64)
        for k in range(6):
            old = a.known_transpose() or a
            g.apply(random_edge_batch(k, n, inserts=16, deletes=4, existing=g.edges()))
            w = Vector.sparse(FP64, n)
            ops.mxv(w, g.matrix, u, MIN_PLUS, direction="push")
            w.to_lists()
            held = [
                c for c, _, _ in be._resident._entries.values()
                if isinstance(c, CSRMatrix) and c is not a
            ]
            assert len(held) <= 1, f"{len(held)} transposes resident after batch {k}"
            assert held == [a.known_transpose()]
            assert old is a or old not in be._resident
        counts = _kernel_counts([get_device()])
    assert counts.get("transpose_countsort", 0) == (1 if directed else 0)
    assert counts["stream_compact_merge"] == 6


@pytest.mark.parametrize("directed", [False, True], ids=["symmetric", "directed"])
def test_multi_sim_carried_compaction_launches_no_transpose_shard(directed):
    """At P=2 a carried compaction sorts no Aᵀ shard: each device merges
    its shard in the compaction launch, and the superseded shards leave
    the devices."""
    base = generators.rmat(7, 8, seed=5, directed=directed)
    n = base.nrows
    with backend_session("multi_sim:2:equal_rows") as be:
        g = DynamicGraph(base)
        a = base.container
        be.transpose(a)  # Aᵀ shards held on both devices
        devices = be.cluster.devices
        before = _kernel_counts(devices)
        u = Vector.from_lists([0, 3], [1.0, 1.0], n, FP64)
        for k in range(3):
            old = a.known_transpose()
            old_shards = [] if old is a else be._parts(old).shards
            g.apply(random_edge_batch(k, n, inserts=16, deletes=4, existing=g.edges()))
            w = Vector.sparse(FP64, n)
            ops.mxv(w, g.matrix, u, MIN_PLUS, direction="push")
            w.to_lists()
            assert be._held(be._parts(a.known_transpose()))
            for ex, shard in zip(be.cluster.executors, old_shards):
                assert shard not in ex._resident, "a superseded Aᵀ shard stayed resident"
        after = _kernel_counts(devices)
    assert after.get("transpose_shard", 0) == before.get("transpose_shard", 0)
    assert after["stream_compact_shard"] == 3 * len(devices)
