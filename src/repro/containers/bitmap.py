"""Dense-keyspace membership over sorted key sets.

:func:`locate` finds needles in a sorted, unique haystack and :func:`union`
merges two such sets; over a small enough keyspace both run on one reusable
int32 *slot map*, so a probe is one gather instead of a binary search and a
union is a bitmap OR instead of a sort.  Both branches return the same
arrays, so the choice is invisible to every caller.  :func:`union_merge`
builds the valued union on them: eWiseAdd and the write pipeline's
accumulate step, for vectors and, over row-major keys
(:meth:`~repro.containers.csr.CSRMatrix.flat_keys`), for matrices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "SLOT_MAP_CAP",
    "dense_keyspace_ok",
    "locate",
    "union",
    "union_merge",
]


#: Largest keyspace the slot map covers: four bytes per key, 128 MB.
SLOT_MAP_CAP = 1 << 25

_SLOT_MAP = np.zeros(0, dtype=np.int32)


def _slot_map(keyspace: int) -> np.ndarray:
    """The zero-filled int32 map over ``[0, keyspace)``, reused across calls.

    The map only grows.  Callers write at the keys they use, read, and MUST
    restore those entries to zero in a ``finally``: the all-zeros invariant
    is what makes reuse cost O(keys written) instead of O(keyspace).
    """
    global _SLOT_MAP
    if _SLOT_MAP.size < keyspace:
        cap = 1 << max(10, int(keyspace - 1).bit_length() if keyspace > 1 else 0)
        _SLOT_MAP = np.zeros(cap, dtype=np.int32)
    return _SLOT_MAP[:keyspace]


def dense_keyspace_ok(n_out: int, m: int) -> bool:
    """Is a dense length-``n_out`` array affordable for ``m`` entries?

    Dense accumulators and bitmaps cost O(n_out); gate them so a handful of
    entries never pays for a huge keyspace (where sorting is cheap anyway).
    """
    return n_out <= max(8 * m, 1 << 16)


def locate(
    haystack: np.ndarray, needles: np.ndarray, keyspace: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(present, pos)`` of each needle in a sorted, unique ``haystack``.

    Keys lie in ``[0, keyspace)``; needles may come in any order and repeat.
    ``pos[k]`` is the needle's index in ``haystack`` wherever ``present[k]``
    holds and unspecified elsewhere.  Unless the needles are a tiny share
    of the haystack, a keyspace within :data:`SLOT_MAP_CAP` answers with one
    gather through the slot map (``index + 1`` at haystack keys); otherwise
    each needle is binary-searched.
    """
    if haystack.size == 0:
        return np.zeros(needles.size, dtype=bool), np.zeros(needles.size, dtype=np.int64)
    if keyspace <= SLOT_MAP_CAP and needles.size * 8 >= haystack.size:
        m = _slot_map(keyspace)
        m[haystack] = np.arange(1, haystack.size + 1, dtype=np.int32)
        try:
            pos = m[needles]
        finally:
            m[haystack] = 0
        pos -= 1
        return pos >= 0, pos
    pos = np.searchsorted(haystack, needles)
    # A needle past the last key lands on it and compares unequal.
    last = np.minimum(pos, haystack.size - 1)
    return haystack[last] == needles, pos


def union(a: np.ndarray, b: np.ndarray, keyspace: int) -> np.ndarray:
    """Sorted union of two sorted, unique int64 key sets in ``[0, keyspace)``.

    A bitmap OR through the slot map plus ``flatnonzero`` when the keyspace
    is dense enough for the entries (:func:`dense_keyspace_ok`) and within
    :data:`SLOT_MAP_CAP`; ``np.union1d`` otherwise.
    """
    if keyspace <= SLOT_MAP_CAP and dense_keyspace_ok(keyspace, a.size + b.size):
        m = _slot_map(keyspace)
        try:
            m[a] = 1
            m[b] = 1
            return np.flatnonzero(m)
        finally:
            m[a] = 0
            m[b] = 0
    return np.union1d(a, b)


def union_merge(
    a: np.ndarray,
    a_vals: np.ndarray,
    b: np.ndarray,
    b_vals: np.ndarray,
    op,
    out_dtype,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of two sorted, unique keyed value sets in ``[0, keyspace)``.

    A key held by one side keeps its value; a key held by both gets
    ``op(a_value, b_value)``.  Returns the sorted keys and their values in
    ``out_dtype``.
    """
    keys = union(a, b, keyspace)
    out = np.empty(keys.size, dtype=out_dtype)
    in_a, pos_a = locate(a, keys, keyspace)
    in_b, pos_b = locate(b, keys, keyspace)
    only_a = in_a & ~in_b
    only_b = in_b & ~in_a
    both = in_a & in_b
    if only_a.any():
        out[only_a] = a_vals[pos_a[only_a]]
    if only_b.any():
        out[only_b] = b_vals[pos_b[only_b]]
    if both.any():
        out[both] = op(a_vals[pos_a[both]], b_vals[pos_b[both]])
    return keys, out
