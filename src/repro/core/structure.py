"""Structural constructors: diag, concat, split (GrB/GxB structural ops).

- :func:`diag` — a matrix with a vector on its k-th diagonal
  (``GrB_Matrix_diag``);
- :func:`diag_extract` — the k-th diagonal of a matrix as a vector
  (``GxB_Vector_diag``);
- :func:`concat` — tile a 2-D grid of matrices into one
  (``GxB_Matrix_concat``);
- :func:`split` — the inverse: carve a matrix into tiles
  (``GxB_Matrix_split``).

All are pure container transforms (no semiring), implemented vectorized at
the frontend.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..containers.convert import build_matrix
from ..containers.csr import CSRMatrix
from ..exceptions import DimensionMismatchError, InvalidValueError
from ..types import GrBType
from .matrix import Matrix
from .vector import Vector

__all__ = ["diag", "diag_extract", "concat", "split"]


def diag(v: Vector, k: int = 0) -> Matrix:
    """Square matrix with ``v`` on diagonal ``k`` (positive = above main).

    The result has dimension ``v.size + |k|`` so the whole vector fits.
    """
    n = v.size + abs(k)
    c = v.container
    if k >= 0:
        rows = c.indices
        cols = c.indices + k
    else:
        rows = c.indices - k
        cols = c.indices
    return Matrix(build_matrix(n, n, rows, cols, c.values.copy(), c.type))


def diag_extract(a: Matrix, k: int = 0) -> Vector:
    """The k-th diagonal of ``a`` as a vector.

    Element i of the result is ``A[i, i+k]`` (k ≥ 0) or ``A[i-k, i]``
    (k < 0); the length matches the diagonal's extent.
    """
    c = a.container
    if k >= 0:
        length = min(c.nrows, c.ncols - k)
    else:
        length = min(c.nrows + k, c.ncols)
    if length < 0:
        raise InvalidValueError(f"diagonal {k} outside a {c.nrows}x{c.ncols} matrix")
    rows = c.row_ids()
    on_diag = c.indices - rows == k
    rr = rows[on_diag]
    vals = c.values[on_diag]
    idx = rr if k >= 0 else rr + k
    from ..containers.sparsevec import SparseVector

    return Vector(SparseVector(length, idx, vals.copy(), c.type))


def concat(tiles: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a 2-D grid of tiles into one matrix.

    All tiles in a grid row must share nrows; all tiles in a grid column
    must share ncols (checked).  Domains promote to a common type.
    """
    if not tiles or not tiles[0]:
        raise InvalidValueError("concat requires a nonempty tile grid")
    width = len(tiles[0])
    if any(len(row) != width for row in tiles):
        raise InvalidValueError("ragged tile grid")
    row_heights = [row[0].nrows for row in tiles]
    col_widths = [t.ncols for t in tiles[0]]
    for i, row in enumerate(tiles):
        for j, t in enumerate(row):
            if t.nrows != row_heights[i]:
                raise DimensionMismatchError(
                    f"tile ({i},{j}) height", expected=row_heights[i], actual=t.nrows
                )
            if t.ncols != col_widths[j]:
                raise DimensionMismatchError(
                    f"tile ({i},{j}) width", expected=col_widths[j], actual=t.ncols
                )
    row_off = np.concatenate(([0], np.cumsum(row_heights)))
    col_off = np.concatenate(([0], np.cumsum(col_widths)))
    from ..types import promote

    out_t: GrBType = tiles[0][0].type
    for row in tiles:
        for t in row:
            out_t = promote(out_t, t.type)
    rows_parts, cols_parts, vals_parts = [], [], []
    for i, row in enumerate(tiles):
        for j, t in enumerate(row):
            c = t.container
            if not c.nvals:
                continue
            rows_parts.append(c.row_ids() + row_off[i])
            cols_parts.append(c.indices + col_off[j])
            vals_parts.append(c.values.astype(out_t.dtype, copy=False))
    nrows, ncols = int(row_off[-1]), int(col_off[-1])
    if not rows_parts:
        return Matrix(CSRMatrix.empty(nrows, ncols, out_t))
    return Matrix(
        build_matrix(
            nrows,
            ncols,
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
            out_t,
        )
    )


def split(a: Matrix, row_sizes: Sequence[int], col_sizes: Sequence[int]) -> List[List[Matrix]]:
    """Carve ``a`` into a grid of tiles (inverse of :func:`concat`).

    ``sum(row_sizes)`` must equal nrows and ``sum(col_sizes)`` ncols.
    """
    if sum(row_sizes) != a.nrows:
        raise DimensionMismatchError("row sizes", expected=a.nrows, actual=sum(row_sizes))
    if sum(col_sizes) != a.ncols:
        raise DimensionMismatchError("col sizes", expected=a.ncols, actual=sum(col_sizes))
    if any(s < 0 for s in row_sizes) or any(s < 0 for s in col_sizes):
        raise InvalidValueError("negative tile size")
    row_off = np.concatenate(([0], np.cumsum(row_sizes))).astype(np.int64)
    col_off = np.concatenate(([0], np.cumsum(col_sizes))).astype(np.int64)
    c = a.container
    rows = c.row_ids()
    r_tile = np.searchsorted(row_off, rows, side="right") - 1
    c_tile = np.searchsorted(col_off, c.indices, side="right") - 1
    out: List[List[Matrix]] = []
    for i in range(len(row_sizes)):
        out_row: List[Matrix] = []
        for j in range(len(col_sizes)):
            pick = (r_tile == i) & (c_tile == j)
            out_row.append(
                Matrix(
                    build_matrix(
                        int(row_sizes[i]),
                        int(col_sizes[j]),
                        rows[pick] - row_off[i],
                        c.indices[pick] - col_off[j],
                        c.values[pick].copy(),
                        c.type,
                    )
                )
            )
        out.append(out_row)
    return out
