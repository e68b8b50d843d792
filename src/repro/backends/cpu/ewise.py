"""Vectorized elementwise kernels (eWiseAdd / eWiseMult).

Both operands are canonical (sorted, unique indices), so union and
intersection are membership problems over the operands' keyspace, solved
with :func:`~repro.containers.bitmap.union` and
:func:`~repro.containers.bitmap.locate` — no hashing, no Python loops.
Matrices reduce to the vector kernels via flat row-major keys.
"""

from __future__ import annotations

import numpy as np

from ...containers.bitmap import locate, union
from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.operators import BinaryOp
from ...types import GrBType, promote

__all__ = [
    "ewise_add_indexed",
    "ewise_mult_indexed",
    "ewise_add_vec",
    "ewise_mult_vec",
    "ewise_add_mat",
    "ewise_mult_mat",
]


def ewise_add_indexed(
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    v_idx: np.ndarray,
    v_vals: np.ndarray,
    op: BinaryOp,
    out_dtype: np.dtype,
    keyspace: int,
):
    """Union merge over sorted index arrays in ``[0, keyspace)``.

    Returns (indices, values).
    """
    keys = union(u_idx, v_idx, keyspace)
    out = np.empty(keys.size, dtype=out_dtype)
    in_u, pos_u = locate(u_idx, keys, keyspace)
    in_v, pos_v = locate(v_idx, keys, keyspace)
    only_u = in_u & ~in_v
    only_v = in_v & ~in_u
    both = in_u & in_v
    if only_u.any():
        out[only_u] = u_vals[pos_u[only_u]]
    if only_v.any():
        out[only_v] = v_vals[pos_v[only_v]]
    if both.any():
        out[both] = np.asarray(op(u_vals[pos_u[both]], v_vals[pos_v[both]]))
    return keys, out


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
    idx, vals = ewise_add_indexed(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def ewise_mult_vec(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    out_t = op.result_type(promote(u.type, v.type))
    idx, vals = ewise_mult_indexed(
        u.indices, u.values, v.indices, v.values, op, out_t.dtype, u.size
    )
    return SparseVector(u.size, idx, vals, out_t)


def _mat_keys(a: CSRMatrix) -> np.ndarray:
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_degrees())
    return rows * np.int64(a.ncols) + a.indices


def _keys_to_csr(
    keys: np.ndarray, vals: np.ndarray, nrows: int, ncols: int, out_t: GrBType
) -> CSRMatrix:
    rows = keys // ncols if ncols else keys
    cols = keys - rows * ncols if ncols else keys
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    if rows.size:
        np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(nrows, ncols, indptr, cols, vals, out_t)


def ewise_add_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = ewise_add_indexed(
        _mat_keys(a), a.values, _mat_keys(b), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return _keys_to_csr(keys, vals, a.nrows, a.ncols, out_t)


def ewise_mult_mat(a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
    out_t = op.result_type(promote(a.type, b.type))
    keys, vals = ewise_mult_indexed(
        _mat_keys(a), a.values, _mat_keys(b), b.values, op, out_t.dtype,
        a.nrows * a.ncols,
    )
    return _keys_to_csr(keys, vals, a.nrows, a.ncols, out_t)
