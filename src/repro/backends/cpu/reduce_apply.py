"""Vectorized apply and reduce kernels."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.monoid import Monoid
from ...core.operators import UnaryOp
from .segments import run_starts, segment_reduce

__all__ = [
    "apply_vec",
    "apply_mat",
    "reduce_vec_scalar",
    "reduce_mat_vector",
    "reduce_mat_scalar",
]


def apply_vec(u: SparseVector, op: UnaryOp) -> SparseVector:
    out_t = op.result_type(u.type)
    if u.nvals == 0:
        return SparseVector.empty(u.size, out_t)
    vals = np.asarray(op(u.values)).astype(out_t.dtype, copy=False)
    return SparseVector(u.size, u.indices.copy(), vals, out_t)


def apply_mat(a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
    out_t = op.result_type(a.type)
    if a.nvals == 0:
        return CSRMatrix.empty(a.nrows, a.ncols, out_t)
    vals = np.asarray(op(a.values)).astype(out_t.dtype, copy=False)
    return CSRMatrix(a.nrows, a.ncols, a.indptr.copy(), a.indices.copy(), vals, out_t)


def reduce_vec_scalar(u: SparseVector, monoid: Monoid) -> Any:
    t = monoid.result_type(u.type)
    return t.cast(monoid.reduce_array(u.values, u.type))


def reduce_mat_scalar(a: CSRMatrix, monoid: Monoid) -> Any:
    t = monoid.result_type(a.type)
    return t.cast(monoid.reduce_array(a.values, a.type))


def reduce_mat_vector(a: CSRMatrix, monoid: Monoid) -> SparseVector:
    """Row-wise reduction; empty rows yield no entry (per spec)."""
    out_t = monoid.result_type(a.type)
    if a.nvals == 0:
        return SparseVector.empty(a.nrows, out_t)
    rows = a.row_ids()
    starts = run_starts(rows)
    vals = segment_reduce(a.values, starts, monoid, out_t.dtype)
    return SparseVector(a.nrows, rows[starts], vals, out_t)
