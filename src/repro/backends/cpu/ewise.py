"""Vectorized elementwise kernels (eWiseAdd / eWiseMult).

Both operands are canonical (sorted, unique indices), so union and
intersection are membership problems over the operands' keyspace: eWiseAdd
is :func:`~repro.containers.bitmap.union_merge` (the one union-merge body,
shared with the write pipeline's accumulate step) and eWiseMult a
:func:`~repro.containers.bitmap.locate` probe — no hashing, no Python
loops.  A matrix is a vector over its row-major keys
(:meth:`~repro.containers.csr.CSRMatrix.flat_keys`), decoded back with
:meth:`~repro.containers.csr.CSRMatrix.from_flat_keys`.
"""

from __future__ import annotations

import numpy as np

from ...containers.bitmap import locate, union_merge
from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.operators import BinaryOp
from ...types import promote

__all__ = [
    "ewise_mult_indexed",
    "ewise_add_vec",
    "ewise_mult_vec",
    "ewise_add_mat",
    "ewise_mult_mat",
]


def ewise_mult_indexed(
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    v_idx: np.ndarray,
    v_vals: np.ndarray,
    op: BinaryOp,
    out_dtype: np.dtype,
    keyspace: int,
):
    """Intersection merge over sorted index arrays in ``[0, keyspace)``."""
    if u_idx.size > v_idx.size:
        # Search the smaller set in the larger one.
        present, pos = locate(u_idx, v_idx, keyspace)
        idx = v_idx[present]
        lhs = u_vals[pos[present]]
        rhs = v_vals[present]
    else:
        present, pos = locate(v_idx, u_idx, keyspace)
        idx = u_idx[present]
        lhs = u_vals[present]
        rhs = v_vals[pos[present]]
    if idx.size == 0:
        return idx.astype(np.int64), np.empty(0, dtype=out_dtype)
    vals = np.asarray(op(lhs, rhs)).astype(out_dtype, copy=False)
    return idx, vals


def ewise_add_vec(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    out_t = op.result_type(promote(u.type, v.type))
    idx, vals = union_merge(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def ewise_mult_vec(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    out_t = op.result_type(promote(u.type, v.type))
    idx, vals = ewise_mult_indexed(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def ewise_add_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = union_merge(
        a.flat_keys(), a.values, b.flat_keys(), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return CSRMatrix.from_flat_keys(a.nrows, a.ncols, keys, vals, out_t)


def ewise_mult_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = ewise_mult_indexed(
        a.flat_keys(), a.values, b.flat_keys(), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return CSRMatrix.from_flat_keys(a.nrows, a.ncols, keys, vals, out_t)
