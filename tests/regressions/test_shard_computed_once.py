# A sharded elementwise op must compute each shard once.
#
# multi_sim used to compute every shard twice: once in a host-side copy of
# the kernel's semantics (whose result it kept) and once more inside the
# launched kernel (whose result it dropped).  At P=4 an ewise_mult of two
# 64-entry vectors called ewise_mult_vec 8 times.  The launch's return value
# is now the shard's output, so the same op calls it once per shard.

from __future__ import annotations

import sys

import numpy as np

import repro as gb
from repro.backends.cpu import ewise
# Loaded before patching, so any binding it holds of the cpu kernel is counted.
from repro.backends.multi_sim import backend as _multi_sim  # noqa: F401
from repro.core import operations as ops
from repro.core.operators import TIMES
from repro.testing.executor import backend_session


def test_ewise_mult_computes_each_shard_once(monkeypatch):
    real = ewise.ewise_mult_vec
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # Count through every module-level binding of the cpu kernel.
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro.") and (
            vars(mod).get("ewise_mult_vec") is real
        ):
            monkeypatch.setattr(mod, "ewise_mult_vec", counting)

    u = gb.Vector.from_dense(np.arange(1.0, 65.0))
    v = gb.Vector.from_dense(np.full(64, 2.0))
    with backend_session("multi_sim:4:equal_rows"):
        w = gb.Vector.sparse(gb.FP64, 64)
        ops.ewise_mult(w, u, v, TIMES)
        got = w.to_dense()
    np.testing.assert_array_equal(got, np.arange(1.0, 65.0) * 2.0)
    assert len(calls) == 4
