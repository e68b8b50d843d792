"""Sparse vector container.

A sparse vector stores its present indices (strictly increasing) and values.
It is the one-dimensional analogue of :class:`~repro.containers.csr.CSRMatrix`
and is used by every ``mxv``/``vxm``/ewise kernel as well as by algorithm
frontiers (BFS frontiers are sparse vectors, the key GBTL-CUDA idiom).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..exceptions import IndexOutOfBoundsError, InvalidObjectError, InvalidValueError
from ..types import GrBType, from_dtype
from ..core.operators import BinaryOp

__all__ = ["SparseVector"]


class SparseVector:
    """Canonical sparse vector: sorted unique ``indices`` + ``values``."""

    __slots__ = ("size", "indices", "values", "type", "_version", "_aux")

    def __init__(self, size: int, indices, values, typ: Optional[GrBType] = None):
        self.size = int(size)
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
        """Invalidate every cached auxiliary structure after a mutation."""
        self._version += 1
        self._aux.clear()
        return self._version

    def _cached(self, key: str, build):
        hit = self._aux.get(key)
        if hit is None:
            hit = build()
            self._aux[key] = hit
        return hit

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, size: int, typ: GrBType) -> "SparseVector":
        if size < 0:
            raise InvalidValueError(f"negative size {size}")
        return cls(size, np.empty(0, dtype=np.int64), np.empty(0, dtype=typ.dtype), typ)

    @classmethod
    def from_lists(
        cls,
        size: int,
        indices,
        values,
        typ: Optional[GrBType] = None,
        dup: Optional[BinaryOp] = None,
    ) -> "SparseVector":
        """Build from possibly unsorted/duplicated (index, value) pairs."""
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        if typ is not None:
            vals = vals.astype(typ.dtype, copy=False)
        if idx.size != vals.size:
            raise InvalidValueError(
                f"indices and values lengths differ ({idx.size}, {vals.size})"
            )
        if idx.size:
            if idx.min() < 0 or idx.max() >= size:
                raise IndexOutOfBoundsError(f"index outside [0, {size})")
            order = np.argsort(idx, kind="stable")
            idx, vals = idx[order], vals[order]
            dups = idx[1:] == idx[:-1]
            if dups.any():
                if dup is None:
                    raise InvalidValueError(
                        "duplicate indices in build and no dup operator"
                    )
                starts = np.flatnonzero(np.concatenate(([True], ~dups)))
                out_vals = vals[starts].copy()
                counts = np.diff(np.append(starts, idx.size))
                for gi in np.flatnonzero(counts > 1):
                    s = starts[gi]
                    acc = vals[s]
                    for k in range(1, counts[gi]):
                        acc = dup(acc, vals[s + k])
                    out_vals[gi] = acc
                idx, vals = idx[starts], np.asarray(out_vals, dtype=vals.dtype)
        return cls(size, idx, vals, typ)

    @classmethod
    def from_dense(cls, dense: np.ndarray, typ: Optional[GrBType] = None) -> "SparseVector":
        """Build from a 1-D array; zeros become implicit."""
        dense = np.asarray(dense)
        if dense.ndim != 1:
            raise InvalidValueError("from_dense requires a 1-D array")
        idx = np.flatnonzero(dense)
        return cls(dense.size, idx, dense[idx], typ)

    @classmethod
    def full(cls, size: int, value, typ: GrBType) -> "SparseVector":
        """A vector with every position present, all equal to ``value``."""
        return cls(
            size,
            np.arange(size, dtype=np.int64),
            np.full(size, value, dtype=typ.dtype),
            typ,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    def get(self, i: int):
        """The stored value at ``i``, or None if implicit."""
        if not 0 <= i < self.size:
            raise IndexOutOfBoundsError(f"index {i} outside [0, {self.size})")
        k = np.searchsorted(self.indices, i)
        if k < self.indices.size and self.indices[k] == i:
            return self.values[k]
        return None

    def iter_entries(self) -> Iterator[Tuple[int, object]]:
        for k in range(self.indices.size):
            yield int(self.indices[k]), self.values[k]

    def to_dense(self, fill=0) -> np.ndarray:
        out = np.full(self.size, fill, dtype=self.type.dtype)
        out[self.indices] = self.values
        return out

    def present_mask(self) -> np.ndarray:
        """Dense boolean presence map (cached; treat read-only)."""

        def build():
            m = np.zeros(self.size, dtype=bool)
            m[self.indices] = True
            return m

        return self._cached("present_mask", build)

    def copy(self) -> "SparseVector":
        return SparseVector(self.size, self.indices.copy(), self.values.copy(), self.type)

    def astype(self, typ: GrBType) -> "SparseVector":
        if typ is self.type:
            return self
        return SparseVector(self.size, self.indices, self.values.astype(typ.dtype), typ)

    def validate(self) -> None:
        if self.indices.size != self.values.size:
            raise InvalidObjectError("indices and values lengths differ")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.size:
                raise InvalidObjectError("index out of range")
            if np.any(np.diff(self.indices) <= 0):
                raise InvalidObjectError("indices not strictly increasing")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVector(size={self.size}, nvals={self.nvals}, {self.type.name})"
