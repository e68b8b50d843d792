"""CSR (compressed sparse row) matrix container.

CSR is the canonical compute format, as in CUSP/GBTL-CUDA.  The container is
*canonical*: column indices within each row are strictly increasing and
duplicate-free, which every kernel relies on.  Construction from unsorted
data goes through :class:`~repro.containers.coo.COO`.

The arrays are plain NumPy so the CPU backend vectorizes over them directly
and the GPU simulator "uploads" them as device buffers without copies.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Iterator, Optional, Tuple

import numpy as np

from ..exceptions import IndexOutOfBoundsError, InvalidObjectError, InvalidValueError
from ..types import GrBType, from_dtype
from .coo import COO

__all__ = ["CSRMatrix", "flat_keys"]


def flat_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Encode (row, col) pairs as sortable int64 keys (row-major).

    The key of ``(i, j)`` is ``i * ncols + j``, so sorted keys are CSR
    storage order and a matrix is a vector over ``nrows * ncols`` keys.
    """
    return np.asarray(rows, dtype=np.int64) * np.int64(ncols) + np.asarray(
        cols, dtype=np.int64
    )


def _indptr(n: int, rows: np.ndarray) -> np.ndarray:
    """Row pointers (length ``n + 1``) of entries with row ids ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if rows.size:
        np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr


class CSRMatrix:
    """Canonical CSR storage: ``indptr`` (n+1), ``indices``, ``values``.

    Invariants (checked by :meth:`validate`):

    - ``indptr`` is nondecreasing, ``indptr[0] == 0``,
      ``indptr[-1] == len(indices) == len(values)``;
    - column indices are strictly increasing within each row;
    - all column indices lie in ``[0, ncols)``.
    """

    __slots__ = (
        "nrows", "ncols", "indptr", "indices", "values", "type", "_version", "_aux",
        "__weakref__",
    )

    #: Process-wide count of counting-sort transpose *builds* (cache misses
    #: included, cache hits not).  Tests pin "at most one build per matrix
    #: version" against this counter.
    transpose_builds = 0

    def __init__(self, nrows, ncols, indptr, indices, values, typ: Optional[GrBType] = None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if typ is not None:
            values = values.astype(typ.dtype, copy=False)
        self.values = np.ascontiguousarray(values)
        self.type = typ if typ is not None else from_dtype(self.values.dtype)
        self._version = 0
        self._aux: dict = {}

    # ------------------------------------------------------------------
    # Version stamp + auxiliary-structure cache
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped whenever stored data changes."""
        return self._version

    def bump_version(self) -> int:
        """Invalidate every cached auxiliary structure after a mutation.

        The dropped transpose memo, which callers may still hold, loses its
        back-link: it is no longer the transpose of this matrix.
        """
        self._version += 1
        memo = self._aux.get("tcsr")
        if memo is not None:
            memo._aux.pop("tsrc", None)
        self._aux.clear()
        return self._version

    @property
    def symmetric(self) -> bool:
        """True when A equals Aᵀ exactly, values included.

        Set by the producer that guarantees it (undirected generator
        output) and carried by :meth:`copy` and :meth:`astype`.  The flag
        lives in ``_aux``, so every mutation (:meth:`bump_version`, hence
        :meth:`install_arrays`) clears it.
        """
        return bool(self._aux.get("symmetric"))

    def _mark_symmetric(self) -> "CSRMatrix":
        """Producer hook: record that this matrix equals its transpose."""
        self._aux["symmetric"] = True
        return self

    def _cached(self, key: Hashable, build):
        hit = self._aux.get(key)
        if hit is None:
            hit = build()
            self._aux[key] = hit
        return hit

    def install_arrays(
        self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray
    ) -> int:
        """Replace the stored arrays **in place** and bump the version.

        The container object survives (same ``id()``), so every consumer
        keyed on identity — device residency entries, serving-layer
        handles — sees the mutation through the version stamp rather than
        through a dangling reference, and the memos in ``_aux`` (Aᵀ,
        multi_sim's row shards) are dropped with the old arrays.  This is
        the install path for streaming compaction (:mod:`repro.streaming`),
        where a delta overlay is merged into the base CSR without
        reregistering the graph anywhere; a compaction that carried Aᵀ
        then seats it through :meth:`seat_transpose`.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(np.asarray(values, dtype=self.type.dtype))
        if indptr.shape != (self.nrows + 1,):
            raise InvalidObjectError(
                f"indptr length {indptr.size} != nrows+1 ({self.nrows + 1})"
            )
        if indices.size != values.size:
            raise InvalidObjectError("indices and values lengths differ")
        self.indptr = indptr
        self.indices = indices
        self.values = values
        return self.bump_version()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, nrows: int, ncols: int, typ: GrBType) -> "CSRMatrix":
        """A matrix with no stored entries."""
        if nrows < 0 or ncols < 0:
            raise InvalidValueError(f"negative dimensions ({nrows}, {ncols})")
        return cls(
            nrows,
            ncols,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=typ.dtype),
            typ,
        )

    @classmethod
    def from_rows(
        cls, nrows: int, ncols: int, rows, cols, values, typ: Optional[GrBType] = None
    ) -> "CSRMatrix":
        """Build from entries in row-major order, duplicate-free; ``rows``
        are their row ids (only counted: the arrays stored are ``cols`` and
        ``values``)."""
        return cls(nrows, ncols, _indptr(nrows, rows), cols, values, typ)

    @classmethod
    def from_flat_keys(
        cls, nrows: int, ncols: int, keys: np.ndarray, values, typ: Optional[GrBType] = None
    ) -> "CSRMatrix":
        """Decode sorted unique row-major keys (see :meth:`flat_keys`)."""
        rows = keys // ncols if ncols else keys
        cols = keys - rows * ncols if ncols else keys
        return cls.from_rows(nrows, ncols, rows, cols, values, typ)

    @classmethod
    def from_coo(cls, coo: COO) -> "CSRMatrix":
        """Build from *deduplicated, sorted* COO triplets."""
        return cls.from_rows(
            coo.nrows, coo.ncols, coo.rows, coo.cols.copy(), coo.vals.copy(), coo.type
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, typ: Optional[GrBType] = None) -> "CSRMatrix":
        """Build from a 2-D array; zeros become implicit (not stored)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise InvalidValueError("from_dense requires a 2-D array")
        rows, cols = np.nonzero(dense)
        coo = COO(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols], typ)
        return cls.from_coo(coo)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Storage footprint — what a device upload would move."""
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of row ``i``'s column indices and values."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError(f"row {i} outside [0, {self.nrows})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries in each row (cached; treat read-only)."""
        return self._cached("row_degrees", lambda: np.diff(self.indptr))

    def out_degrees(self) -> np.ndarray:
        """Alias of :meth:`row_degrees` — out-degrees of an adjacency matrix."""
        return self.row_degrees()

    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry, in storage order (nondecreasing)."""
        return np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())

    def flat_keys(self) -> np.ndarray:
        """Row-major key of every stored entry: sorted and unique."""
        return self.row_ids() * np.int64(self.ncols) + self.indices

    def in_degrees(self) -> np.ndarray:
        """Entries per column (in-degrees); cached, no transpose needed."""
        return self._cached(
            "in_degrees",
            lambda: np.bincount(self.indices, minlength=self.ncols).astype(np.int64),
        )

    def row_nnz_max(self) -> int:
        """Largest row degree (kernel-shape heuristics); cached."""
        return self._cached(
            "row_nnz_max",
            lambda: int(self.row_degrees().max()) if self.nrows else 0,
        )

    def get(self, i: int, j: int):
        """The stored value at (i, j), or None if implicit."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBoundsError(f"row {i} outside [0, {self.nrows})")
        if not 0 <= j < self.ncols:
            raise IndexOutOfBoundsError(f"col {j} outside [0, {self.ncols})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = np.searchsorted(self.indices[lo:hi], j)
        if k < hi - lo and self.indices[lo + k] == j:
            return self.values[lo + k]
        return None

    def iter_triplets(self) -> Iterator[Tuple[int, int, object]]:
        """Yield (row, col, value) in row-major order (reference backend)."""
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            for k in range(lo, hi):
                yield i, int(self.indices[k]), self.values[k]

    def to_coo(self) -> COO:
        return COO(
            self.nrows, self.ncols, self.row_ids(), self.indices.copy(), self.values.copy(),
            self.type,
        )

    def to_dense(self, fill=0) -> np.ndarray:
        """Dense 2-D array with ``fill`` at implicit positions."""
        out = np.full((self.nrows, self.ncols), fill, dtype=self.type.dtype)
        out[self.row_ids(), self.indices] = self.values
        return out

    def copy(self) -> "CSRMatrix":
        return self._derived(
            self.indptr.copy(), self.indices.copy(), self.values.copy(), self.type
        )

    def astype(self, typ: GrBType) -> "CSRMatrix":
        if typ is self.type:
            return self
        return self._derived(self.indptr, self.indices, self.values.astype(typ.dtype), typ)

    def _derived(self, indptr, indices, values, typ: GrBType) -> "CSRMatrix":
        # Same pattern, values mapped elementwise: symmetry survives.
        out = CSRMatrix(self.nrows, self.ncols, indptr, indices, values, typ)
        return out._mark_symmetric() if self.symmetric else out

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def known_transpose(self) -> Optional["CSRMatrix"]:
        """Aᵀ when it exists without a build, else None.

        That is A itself when :attr:`symmetric`, the memo of
        :meth:`cached_transpose`, or — when this matrix *is* such a memo —
        the matrix it was built from, reached through a weak back-link
        that never keeps the source alive and that the source drops when
        its version moves.
        """
        if self.symmetric:
            return self
        hit = self._aux.get("tcsr")
        if hit is None:
            src = self._aux.get("tsrc")
            hit = src() if src is not None else None
        return hit

    def cached_transpose(self) -> "CSRMatrix":
        """Memoised :meth:`transpose`, invalidated by :meth:`bump_version`.

        The one home of Aᵀ: push mxv, pull vxm, CSC views and descriptor
        transposes all read it, so there is one counting sort per matrix
        *version* instead of one per call, and a mutation (which bumps the
        version) can leave no stale copy behind.  A :attr:`symmetric`
        matrix is its own transpose: row j of A holds exactly row j of Aᵀ,
        so it is returned as is and nothing is built; the transpose of the
        memo is A again (:meth:`known_transpose`).
        """
        hit = self.known_transpose()
        if hit is None:
            hit = self.seat_transpose(self.transpose())
        return hit

    def seat_transpose(self, t: "CSRMatrix") -> "CSRMatrix":
        """Make ``t`` this version's Aᵀ memo and return it.

        :meth:`cached_transpose` seats its build here, and streaming
        compaction the transpose it carried (after ``install_arrays`` has
        bumped the version).  ``t`` gets the weak back-link, so
        :meth:`known_transpose` works from both sides.
        """
        self._aux["tcsr"] = t
        t._aux["tsrc"] = weakref.ref(self)
        return t

    def transpose(self) -> "CSRMatrix":
        """CSR of the transpose (a stable counting-sort by column)."""
        CSRMatrix.transpose_builds += 1
        # Stable sort by column preserves row order within each column, so
        # the transposed rows come out with sorted indices.
        order = np.argsort(self.indices, kind="stable")
        return CSRMatrix(
            self.ncols, self.nrows, _indptr(self.ncols, self.indices),
            self.row_ids()[order], self.values[order], self.type,
        )

    def validate(self) -> None:
        """Check all structural invariants; raise InvalidObjectError if broken."""
        ip = self.indptr
        if ip.shape != (self.nrows + 1,):
            raise InvalidObjectError("indptr has wrong length")
        if ip.size and (ip[0] != 0 or ip[-1] != self.indices.size):
            raise InvalidObjectError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(ip) < 0):
            raise InvalidObjectError("indptr is not nondecreasing")
        if self.indices.size != self.values.size:
            raise InvalidObjectError("indices and values lengths differ")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.ncols:
                raise InvalidObjectError("column index out of range")
            # Strictly increasing within each row.
            d = np.diff(self.indices)
            # Positions where a new row begins are not within-row gaps.
            row_starts = ip[1:-1]
            row_starts = row_starts[(row_starts > 0) & (row_starts < self.indices.size)]
            interior = np.ones(self.indices.size - 1, dtype=bool)
            interior[row_starts - 1] = False
            if np.any(d[interior] <= 0):
                raise InvalidObjectError("column indices not strictly increasing in a row")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix({self.nrows}x{self.ncols}, nvals={self.nvals}, {self.type.name})"
