"""The one recorder of the write pipeline (``repro.lazy.write``).

Every vector op whose result goes through ``C<M> ⊙= T`` records through
``emit_write``, and the fused fill→ewise node reuses its consumer's write
pipeline.  For each op form this checks that lazy equals eager under every
mask kind with and without an accumulator, that mask sinking restricts
exactly the inputs the op declares, and that a wrong-size mask fails at
the call with nothing recorded.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.assign import assign_scalar
from repro.core.descriptor import DEFAULT, Descriptor
from repro.core.fused import ewise_apply
from repro.core.monoid import PLUS_MONOID
from repro.core.operators import ABS, PLUS, ROWINDEX, TIMES, VALUEGT
from repro.core.semiring import PLUS_TIMES
from repro.exceptions import DimensionMismatchError
from repro.gpu.device import get_device, reset_device
from repro.lazy import tape_len, wait
from repro.policy import policy

N = 16
A = gb.generators.rmat(4, 4, seed=5, directed=True)
U = gb.Vector.from_lists([0, 2, 3, 7, 9, 12, 15], [1.0, -2.0, 3.0, 4.0, -5.0, 6.0, 7.0], N)
V = gb.Vector.from_lists([1, 2, 5, 7, 11, 12], [2.0, 1.0, -3.0, 0.5, 8.0, 2.0], N)
# Valued mask: the zeros at 3 and 9 separate valued from structural.
MASK = gb.Vector.from_lists([0, 2, 3, 5, 7, 9, 12], [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], N)
OUT0 = gb.Vector.from_lists([0, 1, 3, 4, 9, 12], [10.0, 20.0, 30.0, 40.0, 50.0, 60.0], N)
PERM = np.arange(N)[::-1].copy()

MASK_DESCS = {
    "valued": DEFAULT,
    "structural": Descriptor(structural_mask=True),
    "complemented": Descriptor(complement_mask=True),
}


def _fill():
    f = gb.Vector.sparse(gb.FP64, N)
    assign_scalar(f, 0.5)
    return {"f": f}


def _none():
    return {}


# name -> (prepare, call(out, mask, accum, desc, **prepared), declared
# sinkable inputs, kernel the form must launch on cuda_sim)
FORMS = {
    "mxv": (_none, lambda w, m, acc, d: ops.mxv(w, A, U, PLUS_TIMES, m, acc, d), [], None),
    "vxm": (_none, lambda w, m, acc, d: ops.vxm(w, U, A, PLUS_TIMES, m, acc, d), [], None),
    "ewise_add": (
        _none, lambda w, m, acc, d: ops.ewise_add(w, U, V, TIMES, m, acc, d), [U, V], None,
    ),
    "ewise_mult": (
        _none, lambda w, m, acc, d: ops.ewise_mult(w, U, V, TIMES, m, acc, d), [U, V], None,
    ),
    "apply": (_none, lambda w, m, acc, d: ops.apply(w, U, ABS, m, acc, d), [U], None),
    "apply_indexop": (
        _none,
        lambda w, m, acc, d: ops.apply(w, U, ROWINDEX, m, acc, d, thunk=1),
        [],
        None,
    ),
    "select": (
        _none, lambda w, m, acc, d: ops.select(w, U, VALUEGT, 0.0, m, acc, d), [], None,
    ),
    "reduce_to_vector": (
        _none,
        lambda w, m, acc, d: ops.reduce_to_vector(w, A, PLUS_MONOID, m, acc, d),
        [],
        None,
    ),
    "extract": (
        _none, lambda w, m, acc, d: ops.extract(w, U, PERM, m, acc, d), [], None,
    ),
    "extract_col": (
        _none, lambda w, m, acc, d: ops.extract_col(w, A, 3, None, m, acc, d), [], None,
    ),
    "ewise_apply": (
        _none,
        lambda w, m, acc, d: ewise_apply(w, U, V, PLUS, ABS, True, m, acc, d),
        [U, V],
        None,
    ),
    # The fill's handle dies with ``prepared``, so the fill is observable
    # nowhere else and fuses into the consumer.
    "fill_ewise_fused": (
        _fill,
        lambda w, m, acc, d, f: ops.ewise_add(w, f, V, PLUS, m, acc, d),
        [V],
        "fill_ewise_fused_v",
    ),
}


def _run(name, lazy, mask, accum, desc):
    prepare, call, _, _ = FORMS[name]
    with policy(lazy=lazy), use_backend("cuda_sim"):
        out = OUT0.dup()
        prepared = prepare()
        call(out, mask, accum, desc, **prepared)
        del prepared
        return out.to_lists(), out.type


@pytest.mark.parametrize("accum", [None, PLUS], ids=["no_accum", "accum"])
@pytest.mark.parametrize("kind", list(MASK_DESCS))
@pytest.mark.parametrize("name", list(FORMS))
def test_lazy_equals_eager(name, kind, accum):
    desc = MASK_DESCS[kind]
    eager = _run(name, "off", MASK, accum, desc)
    reset_device()
    lazy = _run(name, "on", MASK, accum, desc)
    assert lazy == eager
    kernel = FORMS[name][3]
    if kernel is not None:
        names = {r.name for r in get_device().profiler.records}
        assert kernel in names, sorted(names)


@pytest.mark.parametrize("kind", list(MASK_DESCS))
@pytest.mark.parametrize("name", list(FORMS))
def test_sink_restricts_exactly_the_declared_inputs(name, kind, monkeypatch):
    be = get_backend("cuda_sim")
    seen = []
    restrict = be.sink_restrict

    def spy(container, mask):
        seen.append(container)
        return restrict(container, mask)

    monkeypatch.setattr(be, "sink_restrict", spy)
    _run(name, "on", MASK, None, MASK_DESCS[kind])
    declared = FORMS[name][2]
    if kind == "complemented":
        assert seen == []
    else:
        assert [id(c) for c in seen] == [id(h.container) for h in declared]


@pytest.mark.parametrize("name", list(FORMS))
def test_wrong_size_mask_raises_at_the_call(name):
    prepare, call, _, _ = FORMS[name]
    bad = gb.Vector.from_lists([0], [1.0], N + 1)
    with policy(lazy="on"), use_backend("cuda_sim"):
        out = OUT0.dup()
        prepared = prepare()
        before = tape_len()
        with pytest.raises(DimensionMismatchError):
            call(out, bad, None, DEFAULT, **prepared)
        assert tape_len() == before
        wait()
