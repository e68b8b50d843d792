"""Block-row partitioned containers.

A P-way partition of an n-row matrix is described by a *splitter* array of
P+1 row boundaries ``0 = s_0 ≤ s_1 ≤ … ≤ s_P = n``; shard p owns rows
``[s_p, s_{p+1})``.  Two splitter policies:

- **equal_rows** — boundaries at multiples of ``n/P``.  Oblivious to the
  graph; pathological for power-law degree distributions, where one shard
  can own most of the edges.
- **degree_balanced** — boundaries chosen so each shard owns ~``nnz/P``
  stored entries (a scan over ``indptr``).  The 1-D analogue of
  GraphBLAST/Gunrock's edge-balanced partitioning.

Shards are ordinary :class:`~repro.containers.csr.CSRMatrix` /
:class:`~repro.containers.sparsevec.SparseVector` containers (NumPy slices
share the parent's storage, so partitioning is O(P) views, not a copy),
which is what lets the per-device scheduler reuse the single-device kernel
layer unchanged.  ``P == 1`` partitions alias the source container itself,
so the degenerate cluster is bit- and accounting-identical to the
single-device backend.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..containers.csr import CSRMatrix
from ..containers.sparsevec import SparseVector
from ..exceptions import InvalidValueError

__all__ = [
    "equal_rows_splitters",
    "degree_balanced_splitters",
    "make_splitters",
    "concat_row_blocks",
    "PartitionedCSR",
    "PartitionedVector",
]

SPLITTERS = ("equal_rows", "degree_balanced")


def equal_rows_splitters(nrows: int, nparts: int) -> np.ndarray:
    """P+1 boundaries cutting ``nrows`` into near-equal contiguous blocks."""
    if nparts < 1:
        raise InvalidValueError(f"nparts must be >= 1, got {nparts}")
    return np.linspace(0, nrows, nparts + 1).astype(np.int64)


def degree_balanced_splitters(indptr: np.ndarray, nparts: int) -> np.ndarray:
    """P+1 boundaries giving each block ~``nnz/P`` stored entries.

    Boundary p is the first row whose prefix-nnz reaches ``p·nnz/P`` —
    found with one ``searchsorted`` over the (already monotone) ``indptr``.
    Degenerates to equal_rows when every row has the same degree, and to
    possibly-empty blocks when single rows exceed the quota (a hub row
    cannot be split below row granularity in a 1-D partition).
    """
    if nparts < 1:
        raise InvalidValueError(f"nparts must be >= 1, got {nparts}")
    nrows = int(indptr.size - 1)
    nnz = int(indptr[-1])
    if nnz == 0:
        return equal_rows_splitters(nrows, nparts)
    targets = (np.arange(1, nparts, dtype=np.float64) * nnz) / nparts
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    out = np.empty(nparts + 1, dtype=np.int64)
    out[0] = 0
    out[1:-1] = np.minimum(cuts, nrows)
    out[-1] = nrows
    # Monotone even when several targets land inside one hub row.
    np.maximum.accumulate(out, out=out)
    return out


def make_splitters(matrix: CSRMatrix, nparts: int, policy: str) -> np.ndarray:
    """Resolve a splitter policy name against a concrete matrix."""
    if policy == "equal_rows":
        return equal_rows_splitters(matrix.nrows, nparts)
    if policy == "degree_balanced":
        return degree_balanced_splitters(matrix.indptr, nparts)
    raise InvalidValueError(f"unknown splitter {policy!r}; known: {SPLITTERS}")


def _slice_rows(a: CSRMatrix, lo: int, hi: int) -> CSRMatrix:
    """Rows [lo, hi) of ``a`` as a view-backed CSR (columns stay global)."""
    s, e = int(a.indptr[lo]), int(a.indptr[hi])
    return CSRMatrix(
        hi - lo,
        a.ncols,
        a.indptr[lo : hi + 1] - s,
        a.indices[s:e],
        a.values[s:e],
        a.type,
    )


def concat_row_blocks(blocks: List[CSRMatrix], ncols: int, typ) -> CSRMatrix:
    """Stack row blocks vertically into one CSR.

    The inverse of slicing a matrix into contiguous row ranges: block k's
    rows become global rows ``[Σ_{i<k} nrows_i, …)``.  Entries keep their
    within-row order, so stacking the row blocks of a sharded product is
    bit-identical to computing the product unsharded.
    """
    if len(blocks) == 1:
        return blocks[0]
    nrows = sum(b.nrows for b in blocks)
    indptr = np.empty(nrows + 1, dtype=np.int64)
    indptr[0] = 0
    row = 0
    nnz = 0
    chunks_i, chunks_v = [], []
    for b in blocks:
        indptr[row + 1 : row + b.nrows + 1] = nnz + b.indptr[1:]
        row += b.nrows
        nnz += b.nvals
        if b.nvals:
            chunks_i.append(b.indices)
            chunks_v.append(b.values)
    indices = np.concatenate(chunks_i) if chunks_i else np.empty(0, np.int64)
    values = np.concatenate(chunks_v) if chunks_v else np.empty(0, typ.dtype)
    return CSRMatrix(nrows, ncols, indptr, indices, values, typ)


class PartitionedCSR:
    """A CSR matrix sharded into P contiguous block-rows.

    Each shard keeps the full column dimension, so shard-local SpMV over a
    replicated input produces exactly the owner's slice of the global
    output — the bit-exact 1-D decomposition.  :meth:`of` is the memoised
    constructor; the partition holds its shards, not the matrix.
    """

    __slots__ = ("nrows", "ncols", "splitters", "shards")

    def __init__(self, matrix: CSRMatrix, nparts: int, splitter: str = "equal_rows"):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        self.splitters = make_splitters(matrix, nparts, splitter)
        if nparts == 1:
            # The degenerate partition IS the matrix: preserving container
            # identity preserves residency and aux caches, making the P=1
            # cluster indistinguishable from the single-device backend.
            self.shards: List[CSRMatrix] = [matrix]
        else:
            self.shards = [
                _slice_rows(matrix, int(lo), int(hi))
                for lo, hi in zip(self.splitters[:-1], self.splitters[1:])
            ]

    @classmethod
    def of(cls, matrix: CSRMatrix, nparts: int, splitter: str = "equal_rows"):
        """The partition of ``matrix``, memoised in its version-stamped ``_aux``.

        A mutation drops it with every other cached structure, and it dies
        with the matrix.  Shards are views over the matrix's arrays, not
        references to the matrix, so the memo forms no reference cycle; the
        P = 1 partition, which is the matrix itself, is not memoised.
        """
        if nparts == 1:
            return cls(matrix, 1, splitter)
        return matrix._cached(
            ("parts", nparts, splitter), lambda: cls(matrix, nparts, splitter)
        )

    @property
    def nparts(self) -> int:
        return len(self.shards)

    def owner_of(self, row: int) -> int:
        """Index of the shard owning ``row``."""
        return int(np.searchsorted(self.splitters, row, side="right") - 1)

    def shard_range(self, p: int):
        return int(self.splitters[p]), int(self.splitters[p + 1])

    def reassemble(self) -> CSRMatrix:
        """Concatenate the shards back into one global CSR (for testing)."""
        return concat_row_blocks(self.shards, self.ncols, self.shards[0].type)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionedCSR({self.nrows}x{self.ncols}, P={self.nparts})"


class PartitionedVector:
    """A sparse vector split into P owned ranges by the same splitters.

    ``shard(p)`` is the owner's local view (indices rebased to the shard's
    row range); ``source`` is the full vector, the view a device holds
    after an allgather.  Shards are computed lazily and cached.
    """

    __slots__ = ("source", "splitters", "_shards")

    def __init__(self, vector: SparseVector, splitters: np.ndarray):
        self.source = vector
        self.splitters = np.asarray(splitters, dtype=np.int64)
        if self.splitters[-1] != vector.size:
            raise InvalidValueError(
                f"splitters cover [0, {self.splitters[-1]}), vector size {vector.size}"
            )
        self._shards: List[Optional[SparseVector]] = [None] * (len(splitters) - 1)

    @property
    def nparts(self) -> int:
        return len(self._shards)

    def shard(self, p: int) -> SparseVector:
        """Owned-range view of shard ``p`` with *local* indices."""
        hit = self._shards[p]
        if hit is not None:
            return hit
        lo, hi = int(self.splitters[p]), int(self.splitters[p + 1])
        u = self.source
        if self.nparts == 1:
            sh = u
        elif u.is_full:
            sh = SparseVector(hi - lo, None, u.values[lo:hi], u.type)
        else:
            s, e = np.searchsorted(u.indices, (lo, hi))
            sh = SparseVector(hi - lo, u.indices[s:e] - lo, u.values[s:e], u.type)
        self._shards[p] = sh
        return sh

    @staticmethod
    def reassemble(
        shards: List[SparseVector], splitters: np.ndarray, typ=None
    ) -> SparseVector:
        """Concatenate local shards back into one global vector.

        Within-shard indices are sorted and shards are ordered by range, so
        offsetting and concatenating preserves the canonical form.
        """
        size = int(splitters[-1])
        vals = [sh.values for sh in shards]
        if sum(v.size for v in vals) == size:
            idx = None  # every position present: the result is full
        else:
            idx = np.concatenate(
                [sh.indices + int(lo) for sh, lo in zip(shards, splitters[:-1])]
            )
        return SparseVector(
            size,
            idx,
            vals[0] if len(vals) == 1 else np.concatenate(vals),
            typ or shards[0].type,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionedVector(size={self.source.size}, P={self.nparts})"
