"""Kernels specific to the multi-device backend.

Almost all shard-local work reuses the single-device kernels from
:mod:`repro.backends.cuda_sim.kernels` — their work estimators inspect the
actual operands, so a launch over a 1/P row shard automatically costs ~1/P
of the full launch.  The kernels here have no single-device analogue:

- ``partial_merge`` — after a push-mode product, every device folds the
  exchanged partial contributions for its owned output range with the
  semiring's additive monoid (the local half of a reduce-scatter).
- ``transpose_shard`` — each device counting-sorts its own block of edges
  during a distributed transpose; the cross-device shuffle that follows is
  charged to the communication model, not this kernel.
- ``stream_compact_shard`` — each device merges its row slice of a
  streaming delta during compaction (see :meth:`MultiSimBackend.compact`).
"""

from __future__ import annotations

from ...gpu.costmodel import KernelWork
from ...gpu.kernel import Kernel
from ..cuda_sim.kernels import (
    _IDX,
    _no_declared_access,
    _reads_all,
    _transpose_work,
    combine_coalescing,
)

__all__ = ["PARTIAL_MERGE", "STREAM_COMPACT_SHARD", "TRANSPOSE_SHARD"]


def _partial_merge_work(nvals: float, item: int) -> KernelWork:
    """Fold ~``nvals`` exchanged entries into the owned output slice.

    Sources arrive as P−1 contiguous buffers (sequential reads); the fold
    updates a sparse accumulator keyed by output index (scattered writes).
    """
    reads, coal_r = combine_coalescing([(nvals * (item + _IDX), "sequential")])
    writes, coal_w = combine_coalescing([(nvals * (item + _IDX), "scatter")])
    total = reads + writes
    coal = (reads * coal_r + writes * coal_w) / total if total else 1.0
    return KernelWork(
        flops=nvals,
        bytes_read=reads,
        bytes_written=writes,
        threads=max(int(nvals), 1),
        coalescing=coal,
    )


PARTIAL_MERGE = Kernel(
    "partial_merge",
    lambda nvals, item: None,
    lambda nvals, item: _partial_merge_work(nvals, item),
    accesses=_no_declared_access,  # charge-only; operands are scalars
)


# Charge-only: the shard-local counting sort of a distributed transpose.
# The semantic transpose is computed once on the host (memoised per matrix
# version via ``cached_transpose``); this kernel prices each device's share.
TRANSPOSE_SHARD = Kernel(
    "transpose_shard",
    lambda shard: None,
    _transpose_work,
    accesses=_reads_all,
)


# Charge-only: a device's share of a streaming compaction.  The merged
# arrays are computed once on the host (the same arrays everywhere).
STREAM_COMPACT_SHARD = Kernel(
    "stream_compact_shard",
    lambda n_items, item_bytes: None,
    lambda n_items, item_bytes: KernelWork(
        flops=2.0 * n_items,
        bytes_read=float(n_items) * item_bytes,
        bytes_written=float(n_items) * item_bytes,
    ),
    accesses=_no_declared_access,  # charge-only; the launch site declares the base
)
