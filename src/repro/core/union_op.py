"""``eWiseUnion`` — elementwise union with fill values (GxB extension).

Unlike :func:`~repro.core.operations.ewise_add`, which passes lone entries
through *unchanged*, ``ewise_union`` always applies the operator,
substituting ``alpha`` for an absent left operand and ``beta`` for an
absent right operand::

    eWiseAdd  (MINUS): a present, b absent -> a          (pass-through)
    eWiseUnion(MINUS): a present, b absent -> a - beta   (operator applied)

This is the operation that makes non-commutative subtraction/division over
sparse operands behave like its dense counterpart.  The result pattern is
still the union (positions absent on both sides stay absent).

Implemented once at the frontend over the canonical containers (it is a
pure merge with no backend-specific value), then routed through the shared
write pipeline for mask/accum/replace.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..containers.bitmap import locate, union
from ..containers.csr import CSRMatrix
from ..containers.sparsevec import SparseVector
from ..exceptions import DimensionMismatchError
from ..types import promote
from .accumulate import merge_matrix, merge_vector
from .descriptor import DEFAULT, Descriptor
from .operators import BinaryOp
from .vector import Vector

__all__ = ["ewise_union"]


def _union_indexed(
    a_idx: np.ndarray,
    a_vals: np.ndarray,
    alpha: Any,
    b_idx: np.ndarray,
    b_vals: np.ndarray,
    beta: Any,
    op: BinaryOp,
    out_dtype: np.dtype,
    keyspace: int,
):
    keys = union(a_idx, b_idx, keyspace)
    lhs = np.full(keys.size, alpha, dtype=np.result_type(a_vals.dtype, type(alpha)))
    rhs = np.full(keys.size, beta, dtype=np.result_type(b_vals.dtype, type(beta)))
    lhs[locate(keys, a_idx, keyspace)[1]] = a_vals
    rhs[locate(keys, b_idx, keyspace)[1]] = b_vals
    vals = np.asarray(op(lhs, rhs)).astype(out_dtype, copy=False)
    return keys, vals


def ewise_union(
    out,
    a,
    alpha: Any,
    b,
    beta: Any,
    op: BinaryOp,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out<mask> accum= op(a ∪ alpha, b ∪ beta)`` (GxB_eWiseUnion).

    ``a``/``b`` are both Vectors or both Matrices matching ``out``;
    ``alpha``/``beta`` are the fill scalars for absent entries.
    """
    if isinstance(out, Vector):
        if a.size != b.size:
            raise DimensionMismatchError("operand sizes", expected=a.size, actual=b.size)
        if out.size != a.size:
            raise DimensionMismatchError("output size", expected=a.size, actual=out.size)
        ac, bc = a.container, b.container
        out_t = op.result_type(promote(ac.type, bc.type))
        idx, vals = _union_indexed(
            ac.indices, ac.values, alpha, bc.indices, bc.values, beta, op,
            out_t.dtype, a.size,
        )
        t = SparseVector(a.size, idx, vals, out_t)
        mc = mask.container if mask is not None else None
        return out._replace(merge_vector(out.container, t, mc, accum, desc))
    if a.shape != b.shape:
        raise DimensionMismatchError("operand shapes", expected=a.shape, actual=b.shape)
    if out.shape != a.shape:
        raise DimensionMismatchError("output shape", expected=a.shape, actual=out.shape)
    ac, bc = a.container, b.container
    out_t = op.result_type(promote(ac.type, bc.type))
    keys, vals = _union_indexed(
        ac.flat_keys(), ac.values, alpha, bc.flat_keys(), bc.values, beta, op,
        out_t.dtype, ac.nrows * ac.ncols,
    )
    t = CSRMatrix.from_flat_keys(ac.nrows, ac.ncols, keys, vals, out_t)
    mc = mask.container if mask is not None else None
    return out._replace(merge_matrix(out.container, t, mc, accum, desc))
