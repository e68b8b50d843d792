"""Delta-COO overlay over a base CSR.

The overlay accumulates pending edge operations (normalized, last-wins
across batches) without touching the base CSR.  Point reads consult the
overlay first, then the base; :func:`merge_overlay` materialises the final
``(indptr, indices, values)`` arrays with one vectorised three-way merge —
the host semantics of the device-side compaction kernel the cost model
charges (see :mod:`repro.streaming.graph`).

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

__all__ = ["DeltaOverlay", "merge_overlay"]


class DeltaOverlay:
    """Pending normalized delta ops, last-wins across absorbed batches."""

    __slots__ = ("rows", "cols", "vals", "is_insert")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.rows = np.empty(0, dtype=np.int64)
        self.cols = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.float64)
        self.is_insert = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return int(self.rows.size)

    @property
    def nbytes(self) -> int:
        """Footprint of the pending delta (what a device upload would move)."""
        return int(
            self.rows.nbytes + self.cols.nbytes + self.vals.nbytes
            + self.is_insert.nbytes
        )

    def absorb(self, batch: EdgeBatch) -> None:
        """Fold one batch in; later ops override earlier pending ops."""
        nb = batch.normalized()
        if len(nb) == 0:
            return
        if len(self) == 0:
            self.rows, self.cols = nb.rows.copy(), nb.cols.copy()
            self.vals, self.is_insert = nb.vals.copy(), nb.is_insert.copy()
            return
        combined = EdgeBatch(
            np.concatenate([self.rows, nb.rows]),
            np.concatenate([self.cols, nb.cols]),
            np.concatenate([self.vals, nb.vals]),
            np.concatenate([self.is_insert, nb.is_insert]),
        ).normalized()
        self.rows, self.cols = combined.rows, combined.cols
        self.vals, self.is_insert = combined.vals, combined.is_insert

    def get(self, i: int, j: int) -> Optional[Tuple[bool, float]]:
        """The pending op for ``(i, j)``: ``(is_insert, value)`` or None."""
        lo = int(np.searchsorted(self.rows, i, side="left"))
        hi = int(np.searchsorted(self.rows, i, side="right"))
        k = lo + int(np.searchsorted(self.cols[lo:hi], j))
        if k < hi and self.cols[k] == j:
            return bool(self.is_insert[k]), float(self.vals[k])
        return None


def merge_overlay(
    base: CSRMatrix, overlay: DeltaOverlay
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise ``base ⊕ overlay`` as new CSR arrays.

    Vectorised three-way merge: concatenate base triplets (first) with the
    pending delta (second), take the *last* entry of every ``(row, col)``
    group — so pending ops shadow base entries — then drop groups whose
    final op is a delete.  Equivalent to rebuilding from scratch, which the
    overlay property tests check bit-for-bit.
    """
    if len(overlay) == 0:
        return base.indptr.copy(), base.indices.copy(), base.values.copy()
    b_rows = base.row_ids()
    all_rows = np.concatenate([b_rows, overlay.rows])
    all_cols = np.concatenate([base.indices, overlay.cols])
    all_vals = np.concatenate(
        [base.values.astype(np.float64, copy=False), overlay.vals]
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
