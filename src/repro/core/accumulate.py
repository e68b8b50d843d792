"""The GraphBLAS write pipeline: accumulate, mask, replace.

Every GraphBLAS operation ends the same way (spec §2.3): the computed result
``T`` is merged into the output ``C`` under the accumulator, the mask, and
the replace flag:

1. **accumulate** — ``Z = accum(C, T)`` elementwise-union when an accumulator
   is given (positions present in only one operand pass through), else
   ``Z = T``;
2. **mask/replace** — positions where the effective mask is true receive
   ``Z``'s entry (or become empty if ``Z`` has none); positions where it is
   false keep ``C``'s old entry, unless ``replace`` is set, in which case
   they become empty.

Backends compute only ``T``; this module implements the merge once,
vectorized over sorted index arrays, and both the vector and matrix paths
share :func:`_merge_indexed`: a matrix merges as the vector of its
row-major keys (:meth:`~repro.containers.csr.CSRMatrix.flat_keys`, decoded
by :meth:`~repro.containers.csr.CSRMatrix.from_flat_keys`).  The
accumulate step is :func:`~repro.containers.bitmap.union_merge`, the same
body the CPU eWiseAdd kernels run.  This centralisation is what guarantees
bit-identical write semantics across the reference, CPU, and simulated-GPU
backends.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..containers.bitmap import union_merge
from ..containers.csr import CSRMatrix
from ..containers.sparsevec import SparseVector
from ..types import GrBType
from .descriptor import DEFAULT, Descriptor
from .mask import check_mask_shape, matrix_mask_at, vector_mask_at
from .operators import BinaryOp

__all__ = ["merge_vector", "merge_matrix"]


def _note_result(container):
    """Tell the active backend a merged output exists device-side.

    Backend kernels compute results *on the device*; the frontend merge is
    part of the same write pipeline, so its output is device-born like any
    backend result, not host data to re-upload on next use.  Host backends
    ignore the hint; the simulated GPUs mark the container resident without
    charging PCIe traffic.
    """
    from ..backends.dispatch import current_backend

    current_backend().note_result(container)
    return container


def _trivial_merge(mask, accum) -> bool:
    """True when the pipeline reduces to "output := T cast to C's domain".

    With no mask every position is writable (complementing a missing mask
    is all-true here, see :func:`~repro.core.mask.vector_mask_at`, and the
    replace flag is moot) and with no accumulator old entries never survive,
    so the merged result *is* T, returned as itself.
    """
    return mask is None and accum is None


def _accumulate(
    c_idx: np.ndarray,
    c_vals: np.ndarray,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    accum: Optional[BinaryOp],
    out_dtype: np.dtype,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union-merge (C, T) under ``accum`` over sorted index arrays."""
    if accum is None:
        return t_idx, t_vals.astype(out_dtype, copy=False)
    return union_merge(c_idx, c_vals, t_idx, t_vals, accum, out_dtype, keyspace)


def _merge_indexed(
    c_idx: np.ndarray,
    c_vals: np.ndarray,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    mask_at,
    accum: Optional[BinaryOp],
    replace: bool,
    out_dtype: np.dtype,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared core of the write pipeline over sorted index arrays.

    ``mask_at(positions) -> bool[len(positions)]`` evaluates the effective
    mask; every index lies in ``[0, keyspace)``.  Returns the final sorted
    (indices, values).
    """
    z_idx, z_vals = _accumulate(
        c_idx, c_vals, t_idx, t_vals, accum, out_dtype, keyspace
    )
    # Mask-true positions take Z entries.
    z_keep = mask_at(z_idx)
    out_idx = z_idx[z_keep]
    out_vals = z_vals[z_keep]
    if not replace and c_idx.size:
        # Mask-false positions retain old C entries.
        c_keep = ~mask_at(c_idx)
        keep_idx = c_idx[c_keep]
        keep_vals = c_vals[c_keep].astype(out_dtype, copy=False)
        if keep_idx.size:
            merged_idx = np.concatenate([out_idx, keep_idx])
            merged_vals = np.concatenate([out_vals, keep_vals])
            order = np.argsort(merged_idx, kind="stable")
            out_idx = merged_idx[order]
            out_vals = merged_vals[order]
    return out_idx, out_vals


def _output_type(c_type: GrBType, t_type: GrBType, accum: Optional[BinaryOp]) -> GrBType:
    """Domain of the written output: C's own domain (spec: output is typed)."""
    # The spec casts Z into C's domain on write; we honour C's domain so that
    # repeated accumulation does not silently widen the output.
    del t_type, accum
    return c_type


def merge_vector(
    c: SparseVector,
    t: SparseVector,
    mask: Optional[SparseVector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    share: bool = True,
) -> SparseVector:
    """Apply the write pipeline and return the new output vector.

    ``share=False`` forbids returning ``t`` itself (used when the caller
    passes a long-lived container — e.g. a cached transpose — that must not
    become aliased with a mutable output).
    """
    check_mask_shape(mask, (c.size,))
    if t.size != c.size:
        # Backends guarantee matching sizes; guard for direct callers.
        from ..exceptions import DimensionMismatchError

        raise DimensionMismatchError("result size", expected=c.size, actual=t.size)
    out_type = _output_type(c.type, t.type, accum)
    if share and _trivial_merge(mask, accum):
        out = t.astype(out_type)
    else:
        idx, vals = _merge_indexed(
            c.indices,
            c.values,
            t.indices,
            t.values.astype(out_type.dtype, copy=False),
            lambda pos: vector_mask_at(mask, desc, pos),
            accum,
            desc.replace,
            out_type.dtype,
            c.size,
        )
        out = SparseVector(c.size, idx, vals, out_type)
    return _note_result(out)


def merge_matrix(
    c: CSRMatrix,
    t: CSRMatrix,
    mask: Optional[CSRMatrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    share: bool = True,
) -> CSRMatrix:
    """Apply the write pipeline and return the new output matrix.

    ``share`` as in :func:`merge_vector`.
    """
    check_mask_shape(mask, c.shape)
    if t.shape != c.shape:
        from ..exceptions import DimensionMismatchError

        raise DimensionMismatchError("result shape", expected=c.shape, actual=t.shape)
    out_type = _output_type(c.type, t.type, accum)
    if share and _trivial_merge(mask, accum):
        out = t.astype(out_type)
    else:
        keys, vals = _merge_indexed(
            c.flat_keys(),
            c.values,
            t.flat_keys(),
            t.values.astype(out_type.dtype, copy=False),
            lambda pos: matrix_mask_at(mask, desc, pos),
            accum,
            desc.replace,
            out_type.dtype,
            c.nrows * c.ncols,
        )
        out = CSRMatrix.from_flat_keys(c.nrows, c.ncols, keys, vals, out_type)
    return _note_result(out)
