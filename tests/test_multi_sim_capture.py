"""multi_sim on the lazy tape: per-device capture removes launch overhead only.

multi_sim records lazily by default and its flushes enter one loop-capture
aggregate per shard device.  Capture is a charging decision, never a
semantic or communication one:

- results are bit-identical with capture on and off;
- collectives (counts and bytes) are identical with capture on and off,
  and with the lazy tape on and off — fused chains run sharded, so no
  fused kernel broadcasts an operand the eager ops would not;
- the makespan saved is at most the launch overheads capture elided, and
  never negative: each replayed launch's busy time is on its device clock
  before the next barrier or collective.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.generators.rmat import rmat
from repro.lazy import lazy_disabled, passes_configured


ALGOS = {
    "bfs": lambda g: gb.algorithms.bfs_levels(g, 0),
    "pagerank": lambda g: gb.algorithms.pagerank(g, tol=0.0, max_iter=8),
}


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, seed=21)


def _run(graph, algo, nparts, lazy=True, **passes):
    ms = get_backend("multi_sim").configure(nparts=nparts, splitter="degree_balanced")
    ms.reset()
    with (nullcontext() if lazy else lazy_disabled()), passes_configured(**passes):
        with use_backend(ms):
            result = ALGOS[algo](graph).to_lists()
    return result, ms.metrics()


@pytest.mark.parametrize("nparts", [2, 4])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_capture_removes_launch_overhead_only(graph, algo, nparts):
    r_on, on = _run(graph, algo, nparts)
    r_off, off = _run(graph, algo, nparts, capture=False)
    assert r_on == r_off
    assert on["comm"] == off["comm"]
    elided = off["kernel_launches"] - on["kernel_launches"]
    assert elided > 0
    saved = off["makespan_us"] - on["makespan_us"]
    overhead = get_backend("multi_sim").props.launch_overhead_us
    assert -1e-6 <= saved <= elided * overhead + 1e-6, (saved, elided)


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_without_launch_overhead_capture_moves_no_clock(graph, algo):
    # Nothing left to elide: a replay that hid compute behind a collective
    # would still show up as a shorter makespan.
    ms = get_backend("multi_sim")
    props = ms.props
    ms.configure(props=props.with_(launch_overhead_us=0.0))
    try:
        _, on = _run(graph, algo, 4)
        _, off = _run(graph, algo, 4, capture=False)
    finally:
        ms.configure(props=props)
    assert on["kernel_launches"] < off["kernel_launches"]
    assert on["makespan_us"] == pytest.approx(off["makespan_us"], rel=1e-12)


@pytest.mark.parametrize("nparts", [2, 4])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_lazy_tape_adds_no_communication(graph, algo, nparts):
    # BFS's loop-level direction pass legitimately trades pull's allgather
    # for push's frontier exchange; pin it to compare the same traversal.
    passes = {"direction": False} if algo == "bfs" else {}
    r_lazy, lazy = _run(graph, algo, nparts, **passes)
    r_eager, eager = _run(graph, algo, nparts, lazy=False)
    assert r_lazy == r_eager
    assert lazy["comm"] == eager["comm"]
    # With every pass on, still no broadcast the eager ops would not issue.
    _, full = _run(graph, algo, nparts)
    for key in ("counts", "bytes"):
        assert full["comm"][key]["broadcast"] == eager["comm"][key]["broadcast"]
