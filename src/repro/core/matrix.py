"""The frontend Matrix object.

A typed handle over a :class:`~repro.containers.csr.CSRMatrix`.  The handle
caches nothing: Aᵀ lives in the container's version-stamped memo
(:meth:`~repro.containers.csr.CSRMatrix.cached_transpose`), which every
mutation drops.  Compute goes through :mod:`repro.core.operations`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from ..containers.coo import COO
from ..containers.convert import build_matrix
from ..containers.csc import CSCMatrix
from ..containers.csr import CSRMatrix
from ..exceptions import (
    DimensionMismatchError,
    EmptyObjectError,
    OutputNotEmptyError,
)
from ..types import FP64, GrBType, from_dtype
from .operators import BinaryOp

__all__ = ["Matrix"]


class Matrix:
    """A sparse GraphBLAS matrix of fixed shape and domain."""

    __slots__ = ("_container",)

    def __init__(self, container: CSRMatrix):
        self._container = container

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def sparse(cls, typ: GrBType = FP64, nrows: int = 0, ncols: int = 0) -> "Matrix":
        """An empty matrix (``GrB_Matrix_new`` analogue)."""
        return cls(CSRMatrix.empty(nrows, ncols, typ))

    @classmethod
    def from_lists(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[Any],
        nrows: int,
        ncols: int,
        typ: Optional[GrBType] = None,
        dup: Optional[BinaryOp] = None,
    ) -> "Matrix":
        """Build from parallel (row, col, value) lists."""
        r = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        c = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64)
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        t = typ or from_dtype(v.dtype)
        return cls(build_matrix(nrows, ncols, r, c, v, t, dup))

    @classmethod
    def from_dense(cls, dense, typ: Optional[GrBType] = None) -> "Matrix":
        """Build from a 2-D array; zeros become implicit."""
        return cls(CSRMatrix.from_dense(np.asarray(dense), typ))

    @classmethod
    def identity(cls, n: int, value: Any = 1, typ: Optional[GrBType] = None) -> "Matrix":
        """n×n diagonal matrix with ``value`` on the diagonal."""
        from ..types import from_value

        t = typ or from_value(value)
        idx = np.arange(n, dtype=np.int64)
        return cls(
            CSRMatrix(
                n,
                n,
                np.arange(n + 1, dtype=np.int64),
                idx,
                np.full(n, value, dtype=t.dtype),
                t,
            )
        )

    @classmethod
    def from_diag(cls, v: "np.ndarray", typ: Optional[GrBType] = None) -> "Matrix":
        """Diagonal matrix from a dense 1-D array (zeros kept implicit)."""
        v = np.asarray(v)
        keep = np.flatnonzero(v)
        return cls.from_lists(keep, keep, v[keep], v.size, v.size, typ)

    def dup(self) -> "Matrix":
        """Deep copy (``GrB_Matrix_dup``)."""
        return Matrix(self._container.copy())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def container(self) -> CSRMatrix:
        return self._container

    def csc(self) -> CSCMatrix:
        """Column view over the container's memoised transpose."""
        return CSCMatrix.from_csr(self._container)

    @property
    def nrows(self) -> int:
        return self._container.nrows

    @property
    def ncols(self) -> int:
        return self._container.ncols

    @property
    def shape(self) -> Tuple[int, int]:
        return self._container.shape

    @property
    def nvals(self) -> int:
        return self._container.nvals

    @property
    def type(self) -> GrBType:
        return self._container.type

    def get(self, i: int, j: int, default: Optional[Any] = None) -> Any:
        v = self._container.get(i, j)
        return default if v is None else v

    def __getitem__(self, ij: Tuple[int, int]) -> Any:
        v = self._container.get(*ij)
        if v is None:
            raise EmptyObjectError(f"no stored value at {ij}")
        return v

    def __setitem__(self, ij: Tuple[int, int], value: Any) -> None:
        self.set_element(ij[0], ij[1], value)

    def __contains__(self, ij: Tuple[int, int]) -> bool:
        return self._container.get(*ij) is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """Barrier before mutation: recorded lazy ops may read us."""
        from ..lazy import schedule

        schedule.sync()

    def build(
        self,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[Any],
        dup: Optional[BinaryOp] = None,
    ) -> "Matrix":
        """``GrB_Matrix_build``: populate an empty matrix from triplets."""
        self._settle()
        if self.nvals:
            raise OutputNotEmptyError("build target must be empty")
        r = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        c = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64)
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        self._container = build_matrix(self.nrows, self.ncols, r, c, v, self.type, dup)
        return self

    def set_element(self, i: int, j: int, value: Any) -> "Matrix":
        """Insert or overwrite one element (``GrB_Matrix_setElement``)."""
        self._settle()
        m = self._container
        value = self.type.cast(value)
        if not (0 <= i < m.nrows and 0 <= j < m.ncols):
            from ..exceptions import IndexOutOfBoundsError

            raise IndexOutOfBoundsError(f"({i}, {j}) outside {m.shape}")
        lo, hi = int(m.indptr[i]), int(m.indptr[i + 1])
        k = lo + int(np.searchsorted(m.indices[lo:hi], j))
        if k < hi and m.indices[k] == j:
            m.values[k] = value  # gbsan: ok(container-mutation) -- setElement overwrite; bump_version below flips the dirty bit
            # In-place overwrite: the container object survives, so cached
            # auxiliary structures and device-resident copies must be
            # invalidated through the mutation counter (dirty bit).
            m.bump_version()
            return self
        indptr = m.indptr.copy()
        indptr[i + 1 :] += 1
        self._container = CSRMatrix(
            m.nrows,
            m.ncols,
            indptr,
            np.insert(m.indices, k, j),
            np.insert(m.values, k, value),
            m.type,
        )
        return self

    def remove_element(self, i: int, j: int) -> "Matrix":
        """Delete one element if present."""
        self._settle()
        m = self._container
        if not (0 <= i < m.nrows and 0 <= j < m.ncols):
            from ..exceptions import IndexOutOfBoundsError

            raise IndexOutOfBoundsError(f"({i}, {j}) outside {m.shape}")
        lo, hi = int(m.indptr[i]), int(m.indptr[i + 1])
        k = lo + int(np.searchsorted(m.indices[lo:hi], j))
        if k < hi and m.indices[k] == j:
            indptr = m.indptr.copy()
            indptr[i + 1 :] -= 1
            self._container = CSRMatrix(
                m.nrows,
                m.ncols,
                indptr,
                np.delete(m.indices, k),
                np.delete(m.values, k),
                m.type,
            )
            return self

    def clear(self) -> "Matrix":
        """Drop all stored entries, keeping shape and domain."""
        self._settle()
        self._container = CSRMatrix.empty(self.nrows, self.ncols, self.type)
        return self

    def _replace(self, container: CSRMatrix) -> "Matrix":
        """Internal: install a merged result (used by operations)."""
        if container.shape != self.shape:
            raise DimensionMismatchError(
                "replacement container", expected=self.shape, actual=container.shape
            )
        self._container = container
        return self

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_lists(self) -> Tuple[List[int], List[int], List[Any]]:
        """(rows, cols, values) as Python lists (``extractTuples``)."""
        coo = self._container.to_coo()
        return list(map(int, coo.rows)), list(map(int, coo.cols)), list(coo.vals)

    def to_coo(self) -> COO:
        return self._container.to_coo()

    def to_dense(self, fill: Any = 0) -> np.ndarray:
        return self._container.to_dense(fill)

    def row_degrees(self) -> np.ndarray:
        return self._container.row_degrees()

    # ------------------------------------------------------------------
    # Operator sugar (allocating convenience wrappers over operations)
    # ------------------------------------------------------------------

    def __matmul__(self, other):
        """``A @ B`` (mxm) or ``A @ v`` (mxv), over (PLUS, TIMES)."""
        from . import operations as _ops
        from .semiring import PLUS_TIMES
        from .vector import Vector

        if isinstance(other, Vector):
            out = Vector.sparse(self.type, self.nrows)
            return _ops.mxv(out, self, other, PLUS_TIMES)
        out = Matrix.sparse(self.type, self.nrows, other.ncols)
        return _ops.mxm(out, self, other, PLUS_TIMES)

    def __add__(self, other: "Matrix") -> "Matrix":
        """Elementwise union with PLUS into a fresh matrix."""
        from . import operations as _ops
        from .operators import PLUS

        out = Matrix.sparse(self.type, self.nrows, self.ncols)
        return _ops.ewise_add(out, self, other, PLUS)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Elementwise intersection with TIMES into a fresh matrix."""
        from . import operations as _ops
        from .operators import TIMES

        out = Matrix.sparse(self.type, self.nrows, self.ncols)
        return _ops.ewise_mult(out, self, other, TIMES)

    @property
    def T(self) -> "Matrix":
        """Transposed copy (``GrB_transpose`` into a fresh matrix)."""
        from . import operations as _ops

        out = Matrix.sparse(self.type, self.ncols, self.nrows)
        return _ops.transpose(out, self)

    def reduce(self, monoid=None) -> Any:
        """Fold all stored values (default: PLUS)."""
        from . import operations as _ops
        from .monoid import PLUS_MONOID

        return _ops.reduce(self, monoid or PLUS_MONOID)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        a, b = self._container, other._container
        return (
            a.shape == b.shape
            and a.nvals == b.nvals
            and bool(np.array_equal(a.indptr, b.indptr))
            and bool(np.array_equal(a.indices, b.indices))
            and bool(np.array_equal(a.values, b.values))
        )

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Matrix({self.nrows}x{self.ncols}, nvals={self.nvals}, {self.type.name})"
