"""COO (coordinate / triplet) staging container.

COO is the *build* format: ``Matrix.build`` and the generators produce
(row, col, value) triplets, possibly with duplicates, which are deduplicated
with a user-supplied binary operator and converted to CSR/CSC for compute.
This mirrors ``GrB_Matrix_build`` semantics: duplicates are combined with
``dup`` (default is an error in the strict spec; like most implementations we
default to PLUS-style combining only when asked).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import IndexOutOfBoundsError, InvalidValueError
from ..types import GrBType, from_dtype
from ..core.operators import BinaryOp

__all__ = ["COO", "dedupe_triplets"]


def dedupe_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dup: Optional[BinaryOp],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triplets by (row, col) and combine duplicates with ``dup``.

    Returns sorted, duplicate-free ``(rows, cols, vals)``.  Raises
    :class:`InvalidValueError` when duplicates exist and ``dup`` is None.
    Combining is performed left-to-right in input order, matching the spec's
    sequential-combine semantics for non-associative ``dup`` operators.
    """
    if rows.size == 0:
        return rows, cols, vals
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if not same.any():
        return rows, cols, vals
    if dup is None:
        raise InvalidValueError("duplicate indices in build and no dup operator")
    # Group boundaries: positions where a new (row, col) starts.
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    out_vals = vals[starts].copy()
    # Fast path for associative+commutative dups expressible as ufunc.reduceat.
    ufunc = getattr(dup.func, "reduceat", None)
    if ufunc is not None and dup.associative:
        out_vals = dup.func.reduceat(vals, starts)
    else:
        counts = np.diff(np.append(starts, rows.size))
        for gi in np.flatnonzero(counts > 1):
            s = starts[gi]
            acc = vals[s]
            for k in range(1, counts[gi]):
                acc = dup(acc, vals[s + k])
            out_vals[gi] = acc
    return rows[starts], cols[starts], np.asarray(out_vals, dtype=vals.dtype)


class COO:
    """Coordinate-format triplets with validation.

    Parameters
    ----------
    nrows, ncols:
        Logical dimensions (both >= 1 per spec; 0 allowed for convenience).
    rows, cols, vals:
        Parallel arrays.  They are validated against the dimensions and
        stored as contiguous NumPy arrays.  ``vals`` fixes the domain.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals", "type")

    def __init__(self, nrows: int, ncols: int, rows, cols, vals, typ: Optional[GrBType] = None):
        if nrows < 0 or ncols < 0:
            raise InvalidValueError(f"negative dimensions ({nrows}, {ncols})")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if typ is not None:
            vals = vals.astype(typ.dtype, copy=False)
        self.vals = np.ascontiguousarray(vals)
        self.type = typ if typ is not None else from_dtype(self.vals.dtype)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise InvalidValueError(
                "rows, cols, vals must have equal lengths "
                f"({self.rows.size}, {self.cols.size}, {self.vals.size})"
            )
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.nrows:
                raise IndexOutOfBoundsError(
                    f"row index outside [0, {self.nrows})"
                )
            if self.cols.min() < 0 or self.cols.max() >= self.ncols:
                raise IndexOutOfBoundsError(
                    f"column index outside [0, {self.ncols})"
                )

    @property
    def nvals(self) -> int:
        return int(self.rows.size)

    def deduped(self, dup: Optional[BinaryOp]) -> "COO":
        """Return a sorted duplicate-free copy (see :func:`dedupe_triplets`)."""
        r, c, v = dedupe_triplets(self.rows, self.cols, self.vals, dup)
        return COO(self.nrows, self.ncols, r, c, v, self.type)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COO({self.nrows}x{self.ncols}, nvals={self.nvals}, {self.type.name})"
