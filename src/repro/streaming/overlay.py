"""Fold a pending delta into a base CSR.

A :class:`~repro.streaming.graph.DynamicGraph`'s pending delta is a
normalized :class:`~repro.streaming.batch.EdgeBatch` (last op per
``(i, j)`` wins, sorted).  :func:`merge_overlay` materialises
``base ⊕ delta`` as ``(indptr, indices, values)`` arrays with one
vectorised three-way merge — the host semantics of the device-side
compaction kernel the cost model charges (see :mod:`repro.streaming.graph`).
:func:`compact_merge` is the one compaction merge every backend runs: A's
merge and, when the caller holds Aᵀ, the same merge of the transposed
delta into it.

Merge semantics per ``(i, j)``:

- pending **insert** wins over any base entry (upsert);
- pending **delete** removes the base entry if present, else it is a no-op;
- untouched base entries pass through bit-identically.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..containers.csr import CSRMatrix, flat_keys
from .batch import EdgeBatch

__all__ = ["compact_merge", "merge_overlay"]


def merge_overlay(
    base: CSRMatrix, overlay: EdgeBatch
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise ``base ⊕ overlay`` as new CSR arrays.

    Vectorised three-way merge: concatenate base triplets (first) with the
    pending delta (second), take the *last* entry of every ``(row, col)``
    group — so pending ops shadow base entries — then drop groups whose
    final op is a delete.  Equivalent to rebuilding from scratch, which the
    overlay property tests check bit-for-bit.  Base values keep their own
    dtype; only the delta's values are cast to it.
    """
    if len(overlay) == 0:
        return base.indptr.copy(), base.indices.copy(), base.values.copy()
    b_rows = base.row_ids()
    all_rows = np.concatenate([b_rows, overlay.rows])
    all_cols = np.concatenate([base.indices, overlay.cols])
    all_vals = np.concatenate(
        [base.values, overlay.vals.astype(base.values.dtype)]
    )
    keep_op = np.concatenate(
        [np.ones(b_rows.size, dtype=bool), overlay.is_insert]
    )
    # Stable sort of the row-major key; within a group base precedes delta
    # because base entries come first in the concatenation order.
    keys = flat_keys(all_rows, all_cols, base.ncols)
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    last = np.ones(k.size, dtype=bool)
    last[:-1] = k[1:] != k[:-1]
    sel = order[last]
    survives = keep_op[sel]
    sel = sel[survives]
    out = CSRMatrix.from_rows(
        base.nrows, base.ncols, all_rows[sel], all_cols[sel], all_vals[sel], base.type
    )
    return out.indptr, out.indices, out.values


def compact_merge(
    base: CSRMatrix, delta: EdgeBatch, t: Optional[CSRMatrix] = None
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], Optional[CSRMatrix]]:
    """``base ⊕ delta`` as arrays, and the carried transpose.

    ``t`` is Aᵀ as the caller holds it (``base`` itself when it is
    symmetric), or None.  Given ``t``, the new Aᵀ is ``t ⊕ deltaᵀ``,
    returned as a fresh container: the old ``t`` may still be held by
    others, so it is never rewritten.
    """
    arrays = merge_overlay(base, delta)
    if t is None:
        return arrays, None
    return arrays, CSRMatrix(
        t.nrows, t.ncols, *merge_overlay(t, delta.transposed()), t.type
    )
