"""Lazy op-graph optimizer: bit-identity, counter conservation, passes.

Two property families pin the optimizer's contract (see docs/optimizer.md):

- **bit-identity** — for any pipeline of recorded vector ops, the lazy
  path must produce bit-for-bit the values the eager path produces, across
  semirings × masks × accumulators.  The optimizer is pure scheduling.
- **counter conservation** — optimization may only *remove* work:
  ``launches(lazy) <= launches(eager)`` and ``h2d(lazy) <= h2d(eager)``.

Plus unit tests for each pass: ewise→reduce and fill→ewise fusion,
dead-materialization elimination, mask sinking, loop-level direction
selection, automatic whole-loop capture, and the forcing points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.core import operations as ops
from repro.core.assign import assign_scalar
from repro.core.descriptor import DEFAULT, Descriptor
from repro.core.fused import ewise_apply
from repro.core.monoid import MAX_MONOID, MIN_MONOID, PLUS_MONOID
from repro.core.operators import ABS, MAX, MIN, MINUS, PLUS, TIMES
from repro.core.semiring import LOR_LAND, MIN_PLUS, PLUS_TIMES
from repro.gpu.device import get_device, reset_device
from repro.lazy import tape_len, wait
from repro.policy import current, policy

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, LOR_LAND]
ACCUMS = [None, PLUS, MIN, MAX]
MONOIDS = [PLUS_MONOID, MIN_MONOID, MAX_MONOID]
DESCS = [
    DEFAULT,
    Descriptor(complement_mask=True),
    Descriptor(structural_mask=True),
    Descriptor(complement_mask=True, structural_mask=True, replace=True),
]


def _fresh():
    gb.get_backend("cuda_sim").evict_all()
    reset_device()


def _graph(n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 9.0, (n, n))
    a[rng.random((n, n)) < 0.6] = 0.0
    u = rng.uniform(1.0, 9.0, n)
    u[rng.random(n) < 0.4] = 0.0
    midx = np.flatnonzero(rng.random(n) < 0.5)
    mask = gb.Vector.from_lists(midx, np.ones(midx.size, dtype=bool), n, gb.BOOL)
    return gb.Matrix.from_dense(a), gb.Vector.from_dense(u), mask


def _pipeline(g, u, mask, semiring, accum, monoid, desc):
    """A representative recorded chain; returns every observable output."""
    n = g.nrows
    w = gb.Vector.sparse(gb.FP64, n)
    ops.mxv(w, g, u, semiring, mask=mask, accum=accum, desc=desc)
    t = gb.Vector.sparse(gb.FP64, n)
    ops.ewise_mult(t, w, u, TIMES)
    s = gb.Vector.sparse(gb.FP64, n)
    assign_scalar(s, 0.5)
    ops.ewise_add(s, s, t, PLUS)
    d = gb.Vector.sparse(gb.FP64, n)
    ewise_apply(d, s, w, MINUS, ABS)
    total = ops.reduce(d, monoid)
    return w, t, s, d, total


def _snapshot(vectors):
    return [(v.to_lists(), str(v.values_array().dtype)) for v in vectors]


@st.composite
def pipeline_case(draw):
    return (
        draw(st.integers(0, 2**31 - 1)),
        draw(st.sampled_from(SEMIRINGS)),
        draw(st.sampled_from(ACCUMS)),
        draw(st.sampled_from(MONOIDS)),
        draw(st.sampled_from(DESCS)),
        draw(st.booleans()),  # masked?
    )


class TestBitIdentity:
    @given(pipeline_case())
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_eager_bitwise(self, case):
        seed, semiring, accum, monoid, desc, masked = case
        g, u, mask = _graph(12, seed)
        m = mask if masked else None
        _fresh()
        with gb.use_backend("cuda_sim"):
            with policy(lazy="off"):
                eager = _pipeline(g, u, m, semiring, accum, monoid, desc)
            with policy(lazy="auto"):
                lazy = _pipeline(g, u, m, semiring, accum, monoid, desc)
        assert _snapshot(eager[:4]) == _snapshot(lazy[:4])
        # Scalar reduction: bit-identical, not merely close.
        assert np.asarray(eager[4]).tobytes() == np.asarray(lazy[4]).tobytes()

    @given(pipeline_case())
    @settings(max_examples=15, deadline=None)
    def test_every_pass_ablation_is_bit_identical(self, case):
        seed, semiring, accum, monoid, desc, masked = case
        g, u, mask = _graph(10, seed)
        m = mask if masked else None
        _fresh()
        with gb.use_backend("cuda_sim"):
            with policy(lazy="off"):
                expect = _snapshot(_pipeline(g, u, m, semiring, accum, monoid, desc)[:4])
            for name in ("fuse", "dme", "sink", "direction", "capture"):
                with policy(**{name: False}):
                    got = _snapshot(_pipeline(g, u, m, semiring, accum, monoid, desc)[:4])
                assert got == expect, f"pass {name}=off diverged"

    def test_bfs_pagerank_lazy_equals_eager(self):
        g = gb.generators.rmat(scale=7, edge_factor=6, seed=11, weighted=False)
        _fresh()
        with gb.use_backend("cuda_sim"):
            with policy(lazy="off"):
                lv_e = gb.algorithms.bfs_levels(g, 0)
                pr_e = gb.algorithms.pagerank(g, max_iter=12)
            lv_l = gb.algorithms.bfs_levels(g, 0)
            pr_l = gb.algorithms.pagerank(g, max_iter=12)
        assert lv_e.to_lists() == lv_l.to_lists()
        assert pr_e.to_lists()[0] == pr_l.to_lists()[0]
        assert np.array_equal(pr_e.values_array(), pr_l.values_array())


class TestCounterConservation:
    def _run_counted(self, fn, lazy: bool):
        _fresh()
        with gb.use_backend("cuda_sim"):
            with policy(lazy="auto" if lazy else "off"):
                keep = fn()
            wait()
            dev = get_device()
            launches = dev.profiler.launch_count
            h2d = dev.profiler.h2d_bytes
        del keep
        return launches, h2d

    @given(pipeline_case())
    @settings(max_examples=25, deadline=None)
    def test_launches_and_bytes_never_increase(self, case):
        seed, semiring, accum, monoid, desc, masked = case
        g, u, mask = _graph(12, seed)
        m = mask if masked else None

        def fn():
            return _pipeline(g, u, m, semiring, accum, monoid, desc)

        launches_eager, h2d_eager = self._run_counted(fn, lazy=False)
        launches_lazy, h2d_lazy = self._run_counted(fn, lazy=True)
        assert launches_lazy <= launches_eager
        assert h2d_lazy <= h2d_eager

    def test_algorithm_counters_never_increase(self):
        g = gb.generators.rmat(scale=8, edge_factor=8, seed=7, weighted=False)
        for fn in (
            lambda: gb.algorithms.bfs_levels(g, 0),
            lambda: gb.algorithms.pagerank(g, max_iter=10),
        ):
            launches_eager, h2d_eager = self._run_counted(fn, lazy=False)
            launches_lazy, h2d_lazy = self._run_counted(fn, lazy=True)
            assert launches_lazy <= launches_eager
            assert h2d_lazy <= h2d_eager


def _kernel_names(dev):
    return [r.name for r in dev.profiler.records if r.kind == "kernel"]


class TestFusionPasses:
    def test_ewise_reduce_fuses_into_one_kernel(self):
        g, u, _ = _graph(16, 3)
        _fresh()
        with gb.use_backend("cuda_sim"):
            d = gb.Vector.sparse(gb.FP64, 16)
            ewise_apply(d, u, u, MINUS, ABS)
            total = ops.reduce(d, PLUS_MONOID)
        del g
        assert total == 0.0
        names = _kernel_names(get_device())
        assert any(n.startswith("ewise_reduce_fused_v") for n in names)

    def test_fill_ewise_fuses_and_skips_fill_materialization(self):
        _, u, _ = _graph(16, 4)
        _fresh()
        with gb.use_backend("cuda_sim"):
            s = gb.Vector.sparse(gb.FP64, 16)
            assign_scalar(s, 0.25)
            ops.ewise_add(s, s, u, PLUS)
            s.nvals
        names = _kernel_names(get_device())
        assert any(n.startswith("fill_ewise_fused_v") for n in names)
        # The dense fill itself never launched as a separate assign.
        assert not any(n.startswith("scatter_assign") for n in names)

    def test_fusion_respects_other_consumers(self):
        # The fill output is ALSO observed -> fill→ewise fusion must not
        # delete it; both results stay correct.
        _, u, _ = _graph(16, 5)
        _fresh()
        with gb.use_backend("cuda_sim"):
            s = gb.Vector.sparse(gb.FP64, 16)
            assign_scalar(s, 0.25)
            out = gb.Vector.sparse(gb.FP64, 16)
            ops.ewise_add(out, s, u, PLUS)
            assert s.nvals == 16
            assert all(v == 0.25 for v in s.to_lists()[1])
        with gb.use_backend("cuda_sim"), policy(lazy="off"):
            s2 = gb.Vector.sparse(gb.FP64, 16)
            assign_scalar(s2, 0.25)
            out2 = gb.Vector.sparse(gb.FP64, 16)
            ops.ewise_add(out2, s2, u, PLUS)
        assert out.to_lists() == out2.to_lists()


class TestDeadMaterializationElimination:
    def test_dead_temporary_never_launches(self):
        g, u, _ = _graph(16, 6)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            del w  # never observed: must not launch, transfer, or allocate
            wait()
        dev = get_device()
        assert dev.profiler.launch_count == 0
        assert dev.profiler.h2d_bytes == 0

    def test_overwritten_output_drops_previous_producer(self):
        g, u, _ = _graph(16, 7)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            # Unmasked, unaccumulated overwrite: the first product's value
            # is unobservable, so only the second may launch.
            ops.mxv(w, g, u, MIN_PLUS)
            w.nvals
        names = [n.split("[", 1)[0] for n in _kernel_names(get_device())]
        spmv = [n for n in names if "spmv" in n or "spmsv" in n]
        assert len(spmv) == 1

    def test_accumulated_output_keeps_previous_producer(self):
        g, u, _ = _graph(16, 8)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            ops.mxv(w, g, u, MIN_PLUS, accum=PLUS)  # reads the first result
            lazy_lists = w.to_lists()
        with gb.use_backend("cuda_sim"), policy(lazy="off"):
            w2 = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w2, g, u, PLUS_TIMES)
            ops.mxv(w2, g, u, MIN_PLUS, accum=PLUS)
        assert lazy_lists == w2.to_lists()


class TestDirectionAndCapture:
    def test_frontier_products_forced_push(self):
        # Sparse boolean frontier over a selection semiring with a
        # complemented structural mask, on an undirected graph: no transpose
        # build appears.  The graph is symmetric, so the loop-level direction
        # pass leaves each hop to the runtime heuristic and pull hops read A
        # itself; on a directed graph the pass pins push instead (see
        # tests/test_symmetric_transpose.py).
        g = gb.generators.rmat(scale=8, edge_factor=8, seed=13, weighted=False)
        _fresh()
        with gb.use_backend("cuda_sim"):
            gb.algorithms.bfs_levels(g, 0)
        names = {n.split("[", 1)[0] for n in _kernel_names(get_device())}
        assert "transpose_countsort" not in names

    def test_steady_state_loop_aggregates_into_replay(self):
        g = gb.generators.rmat(scale=8, edge_factor=8, seed=13, weighted=False)
        _fresh()
        with gb.use_backend("cuda_sim"):
            with policy(lazy="off"):
                eager_levels = gb.algorithms.bfs_levels(g, 0)
            reset_device()
            levels = gb.algorithms.bfs_levels(g, 0)
        assert levels.to_lists() == eager_levels.to_lists()
        dev = get_device()
        hops = int(np.max(levels.values_array())) + 1
        records = [r for r in dev.profiler.records if r.kind == "kernel"]
        replays = [r for r in records if r.name.startswith("graph_replay[lazy:")]
        assert replays, "steady-state hops were not aggregated"
        assert len(records) < hops
        # Lossless attribution: expanded members cover every hop.
        agg = dev.profiler.by_kernel(expand_replays=True)
        expanded = sum(
            int(row["count"])
            for name, row in agg.items()
            if not name.startswith("graph_replay[")
        )
        assert expanded == hops

    def test_capture_disabled_runs_plain(self):
        g = gb.generators.rmat(scale=7, edge_factor=6, seed=2, weighted=False)
        _fresh()
        with gb.use_backend("cuda_sim"), policy(capture=False):
            levels = gb.algorithms.bfs_levels(g, 0)
        names = _kernel_names(get_device())
        assert not any(n.startswith("graph_replay[lazy:") for n in names)
        assert levels.nvals > 0


class TestForcingPoints:
    def test_observers_force_and_mutators_settle(self):
        g, u, _ = _graph(16, 9)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            assert tape_len() == 1
            w.nvals  # observation point
            assert tape_len() == 0
            ops.mxv(w, g, u, PLUS_TIMES)
            w.set_element(0, 1.0)  # mutation settles first
            assert tape_len() == 0
            assert w.get(0) == 1.0

    def test_scalar_reduce_forces(self):
        g, u, _ = _graph(16, 10)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            ops.reduce(w, PLUS_MONOID)
            assert tape_len() == 0

    def test_backend_exit_forces(self):
        g, u, _ = _graph(16, 11)
        _fresh()
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 16)
            ops.mxv(w, g, u, PLUS_TIMES)
            assert tape_len() == 1
        assert tape_len() == 0
        assert get_device().profiler.launch_count > 0
        del w

    def test_mode_restored_by_contexts(self):
        before = current().lazy
        with policy(lazy="off"):
            assert current().lazy == "off"
            with policy(lazy="auto"):
                assert current().lazy == "auto"
            assert current().lazy == "off"
        assert current().lazy == before
