"""Segmented reduction — the workhorse of all vectorized sparse kernels.

Expand–sort–reduce kernels (SpMV, SpMSpV, SpGEMM) all end by folding runs of
values that share a key with the semiring's additive monoid.  For the
standard monoids this lowers onto ``np.ufunc.reduceat`` (a single C loop);
arbitrary user monoids fall back to a per-segment Python fold.

Segments are described by ``starts`` (indices of the first element of each
segment, strictly increasing, ``starts[0] == 0``); each segment is nonempty
and runs to the next start (last one to ``len(values)``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...core.monoid import Monoid
from ...core.operators import BinaryOp

__all__ = ["segment_reduce", "ufunc_for", "run_starts"]

# BinaryOp name -> NumPy ufunc usable with reduceat.
_UFUNCS: Dict[str, np.ufunc] = {
    "PLUS": np.add,
    "TIMES": np.multiply,
    "MIN": np.minimum,
    "MAX": np.maximum,
    "LOR": np.logical_or,
    "LAND": np.logical_and,
    "LXOR": np.logical_xor,
}


def ufunc_for(
    op: BinaryOp,
    monoid: Optional[Monoid] = None,
    dtype: Optional[np.dtype] = None,
) -> Optional[np.ufunc]:
    """The reduceat-capable ufunc for a binary op, if one exists.

    With ``monoid``/``dtype`` given, an op resolved only through its raw
    ``func`` (not the curated table) is additionally required to carry a
    reduction identity matching the monoid's — ``np.subtract`` is a ufunc
    but has no fold identity, and a monoid claiming one for it would make
    ``reduceat`` and identity-seeded reductions disagree.  Curated entries
    are exempt: their identities are known-consistent (NumPy leaves
    ``minimum.identity`` as None even though MIN is a lawful monoid).
    """
    uf = _UFUNCS.get(op.name)
    if uf is not None:
        return uf
    if not isinstance(op.func, np.ufunc):
        return None
    uf = op.func
    if monoid is not None:
        if uf.identity is None:
            return None
        from ...types import from_dtype

        want = monoid.identity(from_dtype(np.dtype(dtype)))
        if not np.asarray(uf.identity == want).all():
            return None
    return uf


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of equal-key runs in a sorted key array."""
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate(([True], keys[1:] != keys[:-1]))
    ).astype(np.int64)


def segment_reduce(
    values: np.ndarray,
    starts: np.ndarray,
    monoid: Monoid,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Fold each (nonempty) segment of ``values`` with the monoid's operator.

    Returns one value per segment, cast to ``out_dtype``.
    """
    if starts.size == 0:
        return np.empty(0, dtype=out_dtype)
    name = monoid.op.name
    if name in ("FIRST", "ANY"):
        return values[starts].astype(out_dtype, copy=False)
    if name == "SECOND":
        ends = np.append(starts[1:], values.size) - 1
        return values[ends].astype(out_dtype, copy=False)
    uf = ufunc_for(monoid.op, monoid, values.dtype)
    if uf is not None:
        # reduceat needs the values in the ufunc's natural domain; logical
        # ufuncs return bool which out_dtype then fixes up.
        return uf.reduceat(values, starts).astype(out_dtype, copy=False)
    # Generic fallback: logarithmic pairwise fold over segment strata.
    # Each round combines adjacent element pairs within every segment in one
    # vectorized op call, halving the longest segment — O(log max_len)
    # Python-level steps instead of one per element.  Associativity (which
    # Monoid requires) makes the tree fold equal to the sequential fold.
    bounds = np.append(starts, values.size)
    seg = np.repeat(np.arange(starts.size, dtype=np.int64), np.diff(bounds))
    vals = values
    while vals.size > starts.size:
        starts_cur = run_starts(seg)
        lens_cur = np.append(starts_cur[1:], seg.size) - starts_cur
        pos = np.arange(seg.size, dtype=np.int64) - np.repeat(starts_cur, lens_cur)
        left = pos % 2 == 0
        # A left element is paired iff its successor sits at an odd local
        # position (same segment); the final element never has a partner.
        paired = left.copy()
        paired[-1] = False
        paired[:-1] &= ~left[1:]
        lefts = np.flatnonzero(paired)
        combined = np.asarray(monoid.op(vals[lefts], vals[lefts + 1]))
        # Pairs collapse onto their left slot; lone odd tails pass through.
        vals = vals[left]
        np.place(vals, paired[left], combined.astype(vals.dtype, copy=False))
        seg = seg[left]
    out = np.empty(starts.size, dtype=out_dtype)
    out[:] = vals
    return out
