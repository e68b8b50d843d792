"""A flushed lazy tape is freed by reference counting alone.

The lazy IR is forward-only: a node points at its input and output values,
and a value points only (weakly) at the handle that owns it, so no
reference cycle runs through a node.  Once a flush returns, its nodes,
their values and every container only they held are freed at once, with
the cycle collector switched off.  When values pointed back at their
nodes, every flushed node waited for ``gc.collect()``.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.algorithms import bfs_levels, pagerank
from repro.backends.dispatch import use_backend
from repro.core import operations as ops
from repro.core.monoid import PLUS_MONOID
from repro.core.operators import ABS, AINV
from repro.core.vector import Vector
from repro.generators import rmat
from repro.lazy import passes, schedule
from repro.lazy.ir import LazyValue, Node
from repro.testing.executor import backend_session
from repro.types import INT64


def _program(g):
    """PageRank, BFS, and a temporary overwritten before anyone reads it."""
    ranks = pagerank(g, max_iter=5)
    levels = bfs_levels(g, 0)
    u = Vector.from_lists([1, 4, 6], [3, -5, 7], g.nrows, INT64)
    w = Vector.sparse(INT64, g.nrows)
    ops.apply(w, u, AINV)  # dead: the next write replaces it unread
    ops.apply(w, u, ABS)
    return ranks.to_lists(), levels.to_lists(), ops.reduce(w, PLUS_MONOID)


@pytest.mark.parametrize("spec", ["cuda_sim", "multi_sim:2:equal_rows"])
def test_flushed_tape_is_freed_without_the_cycle_collector(spec, monkeypatch):
    g = rmat(scale=7, edge_factor=8, seed=1)
    with use_backend("cpu"):
        expected = _program(g)

    fused, dropped = set(), []
    fuse, live_nodes = passes.fuse, schedule._live_nodes

    def fuse_spy(nodes):
        out = fuse(nodes)
        fused.update(n.op for n in out)
        return out

    def live_spy(tape, root):
        live = live_nodes(tape, root)
        dropped.extend(n.op for n in tape if not any(n is m for m in live))
        return live

    monkeypatch.setattr(passes, "fuse", fuse_spy)
    monkeypatch.setattr(schedule, "_live_nodes", live_spy)
    gc.collect()
    gc.disable()
    try:
        with backend_session(spec):
            got = _program(g)
        leaked = [o for o in gc.get_objects() if isinstance(o, (Node, LazyValue))]
    finally:
        gc.enable()

    assert leaked == []
    # The program exercised what the tape holds: fused ewise→reduce and
    # fill→ewise nodes, frontier_step's two outputs, and a DME-dropped node.
    assert {"ewise_reduce_fused_v", "fill_ewise_fused_v", "frontier_step"} <= fused
    assert "apply_v" in dropped
    # Every scalar reduce still returned its value.
    np.testing.assert_allclose(got[0][1], expected[0][1], rtol=1e-12)
    assert got[0][0] == expected[0][0]
    assert got[1] == expected[1]
    assert got[2] == expected[2] == 15
