"""Sort-free fast-path reductions — the semiring dispatch layer.

Every expand–sort–reduce kernel (push SpMV, SpGEMM) historically paid an
O(m log m) ``np.argsort`` on the output keys before ``segment_reduce``.
For the standard additive monoids the sort is unnecessary: the grouped
reduction lowers directly onto a *dense accumulator* indexed by key —

- **PLUS** → ``np.bincount(keys, weights)`` (float64) or ``np.add.at``;
- **MIN / MAX / TIMES / LAND-like folds** → ``np.ufunc.at`` into an
  identity-filled accumulator;
- **LOR** → a boolean scatter (duplicate writes are idempotent);
- **LXOR** → parity of the per-key true count (bincount);
- **FIRST / ANY / SECOND** → a reversed / forward scatter (last write wins).

All of these are single C-level passes — 15–50× faster than the stable sort
they replace at benchmark scales — and *order-exact*: ``ufunc.at`` is an
unbuffered sequential loop, so values combine in expansion order, which is
exactly the within-key order a stable sort would have produced for
``reduceat``.  The one subtlety is float32 PLUS: ``np.bincount`` accumulates
in float64, which would not be bit-identical to a float32 fold, so only
float64 takes the bincount lane and every other dtype uses ``np.add.at`` in
the value dtype.

The strategy depends on the additive monoid alone (the multiply computes
products the same way on every path): :func:`has_fast_reduce` and
:func:`reduce_strategy` look it up, :func:`fast_reduce_by_key` runs it.
Unknown monoids return ``None`` and callers fall back to the generic sort +
:func:`~.segments.segment_reduce` path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ...core.monoid import Monoid
from ...types import from_dtype

__all__ = [
    "fast_reduce_by_key",
    "reduce_strategy",
    "has_fast_reduce",
    "scratch",
]


# ---------------------------------------------------------------------------
# Reusable scratch workspaces
# ---------------------------------------------------------------------------
#
# Kernel-sized temporaries (the SpGEMM expansion stream) are the hot
# path's dominant allocations: several MB per call, returned to the OS on
# free, re-faulted on the next call.  Keeping one grow-only buffer per role
# makes the pages stay resident — the CPU mirror of a GPU backend's
# persistent device workspace.  Buffers are keyed by (tag, dtype); a view of
# the requested size is returned and is valid only until the next request
# for the same tag.

_SCRATCH: Dict[Tuple[str, np.dtype], np.ndarray] = {}


def scratch(tag: str, size: int, dtype) -> np.ndarray:
    """A reusable uninitialised buffer of ``size`` elements for ``tag``."""
    key = (tag, np.dtype(dtype))
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < size:
        cap = 1 << max(10, int(size - 1).bit_length() if size > 1 else 0)
        buf = np.empty(cap, dtype=dtype)
        _SCRATCH[key] = buf
    return buf[:size]


# ---------------------------------------------------------------------------
# Per-monoid dense-accumulator strategies
# ---------------------------------------------------------------------------
#
# Each strategy receives (keys, values, n_out, monoid) with keys in
# [0, n_out) and returns the *dense* accumulator array of length n_out; the
# dispatcher compacts it to present keys.  Cells never observed through a
# key hold the monoid identity and are dropped by the dispatcher, so the
# identity value is never emitted.


def _reduce_plus(keys, values, n_out, monoid):
    if values.dtype == np.float64:
        # bincount accumulates float64 natively: a sequential 0.0 + x fold
        # per key in input order.  NOT bit-equal to np.add.reduceat (which
        # folds pairwise) — every caller that can fall back to a sorted
        # path must reduce with this same strategy over compacted keys
        # (see spgemm._sorted_reduce_flat) to keep results branch-invariant.
        return np.bincount(keys, weights=values, minlength=n_out)
    acc = np.zeros(n_out, dtype=values.dtype)
    np.add.at(acc, keys, values)
    return acc


def _ufunc_at_reducer(uf: np.ufunc):
    def reduce(keys, values, n_out, monoid):
        ident = monoid.identity(from_dtype(values.dtype))
        acc = np.full(n_out, ident, dtype=values.dtype)
        uf.at(acc, keys, values)
        return acc

    return reduce


def _reduce_lor(keys, values, n_out, monoid):
    acc = np.zeros(n_out, dtype=bool)
    acc[keys[values.astype(bool)]] = True
    return acc


def _reduce_land(keys, values, n_out, monoid):
    acc = np.ones(n_out, dtype=bool)
    acc[keys[~values.astype(bool)]] = False
    return acc


def _reduce_lxor(keys, values, n_out, monoid):
    par = np.bincount(keys[values.astype(bool)], minlength=n_out)
    return (par & 1).astype(bool)


def _reduce_first(keys, values, n_out, monoid):
    # Last write wins, so scatter in reverse to keep the first occurrence.
    acc = np.empty(n_out, dtype=values.dtype)
    acc[keys[::-1]] = values[::-1]
    return acc


def _reduce_second(keys, values, n_out, monoid):
    acc = np.empty(n_out, dtype=values.dtype)
    acc[keys] = values
    return acc


_REDUCERS: Dict[str, Callable] = {
    "PLUS": _reduce_plus,
    "TIMES": _ufunc_at_reducer(np.multiply),
    "MIN": _ufunc_at_reducer(np.minimum),
    "MAX": _ufunc_at_reducer(np.maximum),
    "LOR": _reduce_lor,
    "LAND": _reduce_land,
    "LXOR": _reduce_lxor,
    "FIRST": _reduce_first,
    "ANY": _reduce_first,  # ANY keeps the first stored value, like reduce_array
    "SECOND": _reduce_second,
}

# Logical strategies reduce in BOOL regardless of the value dtype (their
# sorted counterparts — logical_or.reduceat etc. — do the same; the caller
# casts to the output domain afterwards).
_BOOL_RESULT = {"LOR", "LAND", "LXOR"}


def reduce_strategy(monoid: Monoid) -> Optional[Callable]:
    """The dense-accumulator strategy for a monoid, or None."""
    return _REDUCERS.get(monoid.op.name)


def has_fast_reduce(monoid: Monoid) -> bool:
    return monoid.op.name in _REDUCERS


def fast_reduce_by_key(
    keys: np.ndarray,
    values: np.ndarray,
    n_out: int,
    monoid: Monoid,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Grouped reduction without sorting.

    ``keys`` (int64 in ``[0, n_out)``, any order, duplicates allowed) and
    ``values`` are parallel arrays; returns ``(unique_sorted_keys, reduced)``
    — exactly what stable-sort + :func:`~.segments.segment_reduce` produces —
    or ``None`` when the monoid has no sort-free lowering.
    """
    fn = _REDUCERS.get(monoid.op.name)
    if fn is None:
        return None
    if keys.size == 0:
        out_dtype = bool if monoid.op.name in _BOOL_RESULT else values.dtype
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=out_dtype)
    counts = np.bincount(keys, minlength=n_out)
    idx = np.flatnonzero(counts).astype(np.int64)
    acc = fn(keys, values, n_out, monoid)
    return idx, acc[idx]

