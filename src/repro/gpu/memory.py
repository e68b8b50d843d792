"""Simulated device memory.

The allocator hands out :class:`DeviceBuffer` objects backed by host NumPy
arrays (the simulation computes on the host) while accounting for capacity
exactly as a real ``cudaMalloc`` sequence would: allocations count against
the device's global memory.  Host↔device copies are not recorded here: the
profiler's ``h2d``/``d2h`` records (:func:`~repro.gpu.kernel.charge_transfer`)
are the one transfer ledger, and the allocator only counts the uploads
that residency skipped (``h2d_elided_*``).

Buffers are freed explicitly or by garbage collection (a finalizer returns
the bytes to the pool), mirroring RAII device vectors in CUSP/GBTL-CUDA.

The allocator additionally keeps **size-class free-lists** (a memory pool in
the cnmem / RMM style): freed blocks are binned by power-of-two size class
and satisfy later requests without a fresh ``cudaMalloc``.  Pool hits are
counted separately from allocations — ``alloc_count`` remains the number of
real (pool-missing) allocations, which is the quantity a device driver
would observe.  The pool only changes *accounting*; capacity semantics
(``in_use``/``free_bytes``) are identical with or without it.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional

import numpy as np

from ..exceptions import DeviceOutOfMemoryError, InvalidValueError
from ..sanitizer import runtime as _gbsan

__all__ = ["DeviceBuffer", "DeviceAllocator", "MemoryStats"]

#: Freed blocks retained per size class before falling back to a real free.
_POOL_BLOCKS_PER_CLASS = 64


def _size_class(nbytes: int) -> int:
    """Power-of-two size class covering ``nbytes`` (0 maps to class 0)."""
    n = int(nbytes)
    if n <= 0:
        return 0
    return 1 << (n - 1).bit_length()


class MemoryStats:
    """Counters for allocations, pooling, and elided uploads.

    Transfers themselves are profiler ``h2d``/``d2h`` records, the one
    transfer ledger; only the uploads residency skips are counted here
    (``h2d_elided_*``).
    """

    __slots__ = (
        "alloc_count",
        "free_count",
        "bytes_allocated_total",
        "pool_hit_count",
        "pool_hit_bytes",
        "h2d_elided_count",
        "h2d_elided_bytes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.alloc_count = 0
        self.free_count = 0
        self.bytes_allocated_total = 0
        self.pool_hit_count = 0
        self.pool_hit_bytes = 0
        self.h2d_elided_count = 0
        self.h2d_elided_bytes = 0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of allocation requests served from the pool."""
        total = self.alloc_count + self.pool_hit_count
        return self.pool_hit_count / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        d = {name: getattr(self, name) for name in self.__slots__}
        d["pool_hit_rate"] = round(self.pool_hit_rate, 4)
        return d


class DeviceBuffer:
    """A device allocation holding a host-side mirror array.

    ``block`` is the sanitizer's identity for the underlying pool block
    (``None`` whenever the sanitizer was off at allocation time); it travels
    through free/reuse so gbsan can detect aliased reissues and leaks.
    """

    def __init__(
        self,
        allocator: "DeviceAllocator",
        nbytes: int,
        array: np.ndarray,
        block: Optional[int] = None,
    ):
        self._allocator = allocator
        self.nbytes = int(nbytes)
        self.array = array
        self.block = block
        self._alive = True
        self._finalizer = weakref.finalize(
            self, allocator._release, self.nbytes, block
        )
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_buffer_created(allocator, self)

    def free(self) -> None:
        """Explicitly return the allocation to the pool (idempotent)."""
        if self._alive:
            self._alive = False
            self._finalizer()

    @property
    def alive(self) -> bool:
        return self._alive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "freed"
        return f"<DeviceBuffer {self.nbytes}B {state}>"


class DeviceAllocator:
    """Capacity-tracked, size-class-pooled allocator for the simulated device."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise InvalidValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = int(capacity_bytes)
        self.in_use = 0
        self.stats = MemoryStats()
        # size class -> count of pooled (freed, reusable) blocks.  Blocks
        # are accounting fictions (the simulation computes on host arrays),
        # so the free-list stores counts, not storage.
        self._pool: Dict[int, int] = {}

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.in_use

    @property
    def pooled_blocks(self) -> int:
        """Total blocks currently parked in the size-class free-lists."""
        return sum(self._pool.values())

    def _reserve(self, nbytes: int) -> Optional[int]:
        """Account one allocation; returns the sanitizer's block identity."""
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(nbytes, self.free_bytes)
        self.in_use += nbytes
        cls = _size_class(nbytes)
        pooled = self._pool.get(cls, 0) > 0
        if pooled:
            # Pool hit: no cudaMalloc; the request reuses a freed block.
            self._pool[cls] -= 1
            self.stats.pool_hit_count += 1
            self.stats.pool_hit_bytes += nbytes
        else:
            self.stats.alloc_count += 1
            self.stats.bytes_allocated_total += nbytes
        san = _gbsan.ACTIVE
        if san is not None:
            return san.on_reserve(self, cls, pooled)
        return None

    def _release(self, nbytes: int, block: Optional[int] = None) -> None:
        self.in_use = max(0, self.in_use - nbytes)
        self.stats.free_count += 1
        cls = _size_class(nbytes)
        pooled = self._pool.get(cls, 0) < _POOL_BLOCKS_PER_CLASS
        if pooled:
            self._pool[cls] = self._pool.get(cls, 0) + 1
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_release(self, cls, block, pooled)

    def alloc(self, shape: Any, dtype: Any) -> DeviceBuffer:
        """``cudaMalloc`` analogue: uninitialised device array."""
        arr = np.empty(shape, dtype=dtype)
        block = self._reserve(arr.nbytes)
        return DeviceBuffer(self, arr.nbytes, arr, block)

    def reserve(self, nbytes: int) -> DeviceBuffer:
        """Capacity-only allocation (no host mirror array).

        Used when the simulation computes on existing host arrays and only
        needs the device-memory *accounting* — e.g. the cuda_sim backend's
        resident-container tracking.  Its uploads are charged through
        :func:`~repro.gpu.kernel.charge_transfer`, so the profiler's ``h2d``
        records are their one ledger.
        """
        nbytes = int(nbytes)
        block = self._reserve(nbytes)
        return DeviceBuffer(self, nbytes, np.empty(0, dtype=np.uint8), block)

    def record_h2d_elided(self, nbytes: int) -> None:
        """Count one upload skipped because the target was clean-resident."""
        self.stats.h2d_elided_count += 1
        self.stats.h2d_elided_bytes += int(nbytes)

    def reset(self) -> None:
        """Drop accounting and the pool (buffers already handed out keep working)."""
        self.in_use = 0
        self._pool.clear()
        self.stats.reset()
