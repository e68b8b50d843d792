# A policy scope must settle the lazy tape when it closes, not only the
# lazy-mode scopes.
#
# Before the switches were one ``policy(...)`` scope, only the lazy-mode
# scopes forced pending work on a transition.  An op recorded inside a lane
# or reuse scope and observed after it closed ran under the *outer*
# policy:
#
# 1. a pull mxv recorded under a forced scalar lane launched
#    ``spmv_csr_vector[binned]`` (eager: ``[scalar]``);
# 2. two chained mxvs recorded with the reuse layer off counted their
#    uploads as elided (eager: zero elided bytes).
#
# Each lazy run must match its eager run, result and counter alike.

from __future__ import annotations

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.generators.rmat import rmat
from repro.gpu.device import get_device, reset_device
from repro.policy import policy


def _graph():
    g = rmat(10, 8, seed=3)
    return g, gb.Vector.full(1.0, g.nrows, gb.FP64)


def _fresh():
    get_backend("cuda_sim").evict_all()
    reset_device()


def _lane_run(lazy):
    g, u = _graph()
    _fresh()
    with policy(lazy=lazy), use_backend("cuda_sim"):
        w = gb.Vector.sparse(gb.FP64, g.nrows)
        with policy(lanes="scalar"):
            ops.mxv(w, g, u, PLUS_TIMES, direction="pull")
        return w.to_lists(), sorted(get_device().profiler.by_kernel())


def _reuse_run(lazy):
    g, u = _graph()
    _fresh()
    with policy(lazy=lazy), use_backend("cuda_sim"):
        w1 = gb.Vector.sparse(gb.FP64, g.nrows)
        w2 = gb.Vector.sparse(gb.FP64, g.nrows)
        with policy(aux_cache=False, elision=False):
            ops.mxv(w1, g, u, PLUS_TIMES, direction="pull")
            ops.mxv(w2, g, w1, PLUS_TIMES, direction="pull")
        return w2.to_lists(), get_device().allocator.stats.h2d_elided_bytes


def test_lane_scope_settles_recorded_mxv():
    eager = _lane_run("off")
    lazy = _lane_run("auto")
    assert eager[1] == ["spmv_csr_vector[scalar]"]
    assert lazy == eager


def test_reuse_scope_settles_recorded_mxvs():
    eager = _reuse_run("off")
    lazy = _reuse_run("auto")
    assert eager[1] == 0
    assert lazy == eager
