"""The frontend Vector object.

A thin, typed handle over a :class:`~repro.containers.sparsevec.SparseVector`
container.  All *compute* goes through the free functions in
:mod:`repro.core.operations`, which dispatch to the active backend; the
methods here are construction, element access, and bookkeeping — mirroring
GBTL's ``Vector`` template whose heavy lifting lives in the backend.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from ..containers.sparsevec import SparseVector
from ..exceptions import (
    DimensionMismatchError,
    EmptyObjectError,
    OutputNotEmptyError,
)
from ..types import FP64, GrBType, from_dtype
from .operators import BinaryOp

__all__ = ["Vector"]


class Vector:
    """A sparse GraphBLAS vector of fixed size and domain.

    Under lazy evaluation (:mod:`repro.lazy`) a handle may carry a pending
    recorded value in ``_lazy``; reading anything value-dependent (entries,
    ``nvals``, exports, equality) forces the tape first.  ``size`` and
    ``type`` are invariant under replacement and never force.
    """

    __slots__ = ("_container", "_lazy", "__weakref__")

    def __init__(self, container: SparseVector):
        self._container = container
        self._lazy = None

    def _force(self) -> SparseVector:
        """Materialise a pending lazy value; returns the current container."""
        lv = self._lazy
        if lv is not None:
            from ..lazy import schedule

            c = schedule.force(lv)
            if self._lazy is lv:
                self._container = c
                self._lazy = None
        return self._container

    def _settle(self) -> None:
        """Barrier before in-place mutation: recorded ops may read us."""
        from ..lazy import schedule

        schedule.sync()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def sparse(cls, typ: GrBType = FP64, size: int = 0) -> "Vector":
        """An empty vector (``GrB_Vector_new`` analogue)."""
        return cls(SparseVector.empty(size, typ))

    @classmethod
    def from_lists(
        cls,
        indices: Iterable[int],
        values: Iterable[Any],
        size: int,
        typ: Optional[GrBType] = None,
        dup: Optional[BinaryOp] = None,
    ) -> "Vector":
        """Build from parallel (index, value) lists."""
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices, dtype=np.int64)
        if typ is None and vals.dtype.kind not in "biuf":
            raise TypeError(f"cannot infer domain from dtype {vals.dtype}")
        t = typ or from_dtype(vals.dtype)
        return cls(SparseVector.from_lists(size, idx, vals, t, dup))

    @classmethod
    def from_dense(cls, dense, typ: Optional[GrBType] = None) -> "Vector":
        """Build from a dense 1-D array; zeros become implicit."""
        return cls(SparseVector.from_dense(np.asarray(dense), typ))

    @classmethod
    def full(cls, value: Any, size: int, typ: Optional[GrBType] = None) -> "Vector":
        """All ``size`` positions present with the same value."""
        from ..types import from_value

        t = typ or from_value(value)
        return cls(SparseVector.full(size, value, t))

    def dup(self) -> "Vector":
        """Deep copy (``GrB_Vector_dup``)."""
        return Vector(self._force().copy())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def container(self) -> SparseVector:
        return self._force()

    @property
    def size(self) -> int:
        return self._container.size

    @property
    def nvals(self) -> int:
        return self._force().nvals

    @property
    def type(self) -> GrBType:
        return self._container.type

    def get(self, i: int, default: Optional[Any] = None) -> Any:
        """Element at ``i`` or ``default`` when implicit."""
        v = self._force().get(i)
        return default if v is None else v

    def __getitem__(self, i: int) -> Any:
        v = self._force().get(i)
        if v is None:
            raise EmptyObjectError(f"no stored value at index {i}")
        return v

    def __setitem__(self, i: int, value: Any) -> None:
        self.set_element(i, value)

    def __contains__(self, i: int) -> bool:
        return self._force().get(i) is not None

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def build(
        self,
        indices: Iterable[int],
        values: Iterable[Any],
        dup: Optional[BinaryOp] = None,
    ) -> "Vector":
        """``GrB_Vector_build``: populate an empty vector from lists."""
        self._settle()
        if self.nvals:
            raise OutputNotEmptyError("build target must be empty")
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices, dtype=np.int64)
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        self._container = SparseVector.from_lists(self.size, idx, vals, self.type, dup)
        return self

    def set_element(self, i: int, value: Any) -> "Vector":
        """Insert or overwrite one element (``GrB_Vector_setElement``)."""
        self._settle()
        c = self._container
        value = self.type.cast(value)
        k = int(np.searchsorted(c.indices, i))
        if k < c.nvals and c.indices[k] == i:
            c.values[k] = value  # gbsan: ok(container-mutation) -- setElement overwrite; bump_version below flips the dirty bit
            # In-place overwrite: bump the mutation counter so cached aux
            # structures and device-resident copies are invalidated.
            c.bump_version()
            return self
        if not 0 <= i < c.size:
            from ..exceptions import IndexOutOfBoundsError

            raise IndexOutOfBoundsError(f"index {i} outside [0, {c.size})")
        self._container = SparseVector(
            c.size,
            np.insert(c.indices, k, i),
            np.insert(c.values, k, value),
            c.type,
        )
        return self

    def remove_element(self, i: int) -> "Vector":
        """Delete one element if present (``GrB_Vector_removeElement``)."""
        self._settle()
        c = self._container
        k = int(np.searchsorted(c.indices, i))
        if k < c.nvals and c.indices[k] == i:
            self._container = SparseVector(
                c.size, np.delete(c.indices, k), np.delete(c.values, k), c.type
            )
        return self

    def clear(self) -> "Vector":
        """Drop all stored entries, keeping size and domain."""
        self._settle()
        self._container = SparseVector.empty(self.size, self.type)
        return self

    def resize(self, size: int) -> "Vector":
        """Grow or shrink; entries beyond a smaller size are dropped."""
        self._settle()
        c = self._container
        if size < c.size:
            keep = c.indices < size
            self._container = SparseVector(size, c.indices[keep], c.values[keep], c.type)
        else:
            self._container = SparseVector(size, c.indices, c.values, c.type)
        return self

    def _replace(self, container: SparseVector) -> "Vector":
        """Internal: install a merged result (used by operations)."""
        if container.size != self.size:
            raise DimensionMismatchError(
                "replacement container", expected=self.size, actual=container.size
            )
        self._container = container
        return self

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_lists(self) -> Tuple[List[int], List[Any]]:
        """(indices, values) as Python lists (``extractTuples``)."""
        c = self._force()
        return list(map(int, c.indices)), list(c.values)

    def to_dense(self, fill: Any = 0) -> np.ndarray:
        return self._force().to_dense(fill)

    def indices_array(self) -> np.ndarray:
        """Stored indices (read-only convention)."""
        return self._force().indices

    def values_array(self) -> np.ndarray:
        """Stored values (read-only convention)."""
        return self._force().values

    # ------------------------------------------------------------------
    # Operator sugar (allocating convenience wrappers over operations)
    # ------------------------------------------------------------------

    def __add__(self, other: "Vector") -> "Vector":
        """Elementwise union with PLUS into a fresh vector."""
        from . import operations as _ops
        from .operators import PLUS

        out = Vector.sparse(self.type, self.size)
        return _ops.ewise_add(out, self, other, PLUS)

    def __mul__(self, other: "Vector") -> "Vector":
        """Elementwise intersection with TIMES into a fresh vector."""
        from . import operations as _ops
        from .operators import TIMES

        out = Vector.sparse(self.type, self.size)
        return _ops.ewise_mult(out, self, other, TIMES)

    def __matmul__(self, other) -> "Vector":
        """``v @ A`` — vxm over (PLUS, TIMES) into a fresh vector."""
        from . import operations as _ops
        from .semiring import PLUS_TIMES

        out = Vector.sparse(self.type, other.ncols)
        return _ops.vxm(out, self, other, PLUS_TIMES)

    def reduce(self, monoid=None) -> Any:
        """Fold all stored values (default: PLUS)."""
        from . import operations as _ops
        from .monoid import PLUS_MONOID

        return _ops.reduce(self, monoid or PLUS_MONOID)

    def __eq__(self, other: Any) -> bool:
        """Structural + value equality (same size, entries, domain kind)."""
        if not isinstance(other, Vector):
            return NotImplemented
        a, b = self._force(), other._force()
        return (
            a.size == b.size
            and a.nvals == b.nvals
            # With equal counts, one full vector means both are, at 0..size-1.
            and (a.is_full or bool(np.array_equal(a.indices, b.indices)))
            and bool(np.array_equal(a.values, b.values))
        )

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector(size={self.size}, nvals={self.nvals}, {self.type.name})"
