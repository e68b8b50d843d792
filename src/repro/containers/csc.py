"""CSC (compressed sparse column) view.

Column access to A means row access to Aᵀ.  :class:`CSCMatrix` is a
lightweight wrapper holding the CSR of the transpose together with the
logical (untransposed) shape, so callers can iterate columns of A.  It
caches nothing itself: :meth:`from_csr` (and ``Matrix.csc()``) wrap the
container's version-stamped memo, :meth:`CSRMatrix.cached_transpose`,
which is the only place Aᵀ is kept.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .csr import CSRMatrix

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Column-compressed view of a matrix, stored as CSR of its transpose."""

    __slots__ = ("_tcsr",)

    def __init__(self, tcsr: CSRMatrix):
        self._tcsr = tcsr

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSCMatrix":
        # Version-stamped cache on the container: one counting sort per
        # matrix version no matter how many handles/views ask for columns.
        return cls(csr.cached_transpose())

    @property
    def tcsr(self) -> CSRMatrix:
        """The stored CSR of the transpose (rows of this are columns of A)."""
        return self._tcsr

    @property
    def nrows(self) -> int:
        return self._tcsr.ncols

    @property
    def ncols(self) -> int:
        return self._tcsr.nrows

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nvals(self) -> int:
        return self._tcsr.nvals

    @property
    def type(self):
        return self._tcsr.type

    @property
    def indptr(self) -> np.ndarray:
        """Column pointer array (length ncols+1)."""
        return self._tcsr.indptr

    @property
    def row_indices(self) -> np.ndarray:
        """Row indices, grouped by column."""
        return self._tcsr.indices

    @property
    def values(self) -> np.ndarray:
        return self._tcsr.values

    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of column ``j``'s row indices and values."""
        return self._tcsr.row(j)

    def col_degrees(self) -> np.ndarray:
        return self._tcsr.row_degrees()

    def to_csr(self) -> CSRMatrix:
        """Materialise back to CSR (transposes the stored transpose)."""
        return self._tcsr.cached_transpose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix({self.nrows}x{self.ncols}, nvals={self.nvals}, {self.type.name})"
