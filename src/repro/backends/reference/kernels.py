"""Pure-Python kernels for the reference backend.

These are deliberately written as textbook loops over dictionaries — the same
way GBTL's sequential reference backend is written as straightforward C++
loops.  They are the semantics oracle: every other backend's kernel is tested
for bit-equality against these, and every benchmark's "sequential CPU
baseline" series measures them.
"""

from __future__ import annotations

from typing import Any, Dict

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.operators import BinaryOp
from ...core.semiring import Semiring
from ...types import GrBType

__all__ = [
    "vec_to_dict",
    "dict_to_vec",
    "mat_to_dict",
    "dict_to_mat",
    "spmv_dict",
    "spgemm_dict",
    "ewise_union_dict",
    "ewise_intersect_dict",
]


def vec_to_dict(u: SparseVector) -> Dict[int, Any]:
    return {int(i): v for i, v in zip(u.indices, u.values)}


def dict_to_vec(d: Dict[int, Any], size: int, typ: GrBType) -> SparseVector:
    if not d:
        return SparseVector.empty(size, typ)
    items = sorted(d.items())
    idx = [i for i, _ in items]
    vals = [typ.cast(v) for _, v in items]
    return SparseVector(size, idx, vals, typ)


def mat_to_dict(a: CSRMatrix) -> Dict[int, Dict[int, Any]]:
    out: Dict[int, Dict[int, Any]] = {}
    for i, j, v in a.iter_triplets():
        out.setdefault(i, {})[j] = v
    return out


def dict_to_mat(
    d: Dict[int, Dict[int, Any]], nrows: int, ncols: int, typ: GrBType
) -> CSRMatrix:
    import numpy as np

    rows, cols, vals = [], [], []
    for i in sorted(d):
        row = d[i]
        for j in sorted(row):
            rows.append(i)
            cols.append(j)
            vals.append(typ.cast(row[j]))
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    for i in rows:
        indptr[i + 1] += 1
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(
        nrows,
        ncols,
        indptr,
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=typ.dtype),
        typ,
    )


def spmv_dict(
    a_rows: Dict[int, Dict[int, Any]],
    u: Dict[int, Any],
    semiring: Semiring,
    out_type: GrBType,
) -> Dict[int, Any]:
    """Row-picture sparse matrix * sparse vector: t[i] = ⊕_j A[i,j] ⊗ u[j]."""
    out: Dict[int, Any] = {}
    for i, row in a_rows.items():
        acc = None
        # Iterate the smaller side of the intersection.
        if len(u) < len(row):
            it = ((j, u[j], row[j]) for j in u if j in row)
        else:
            it = ((j, u[j], row[j]) for j in row if j in u)
        for _, uv, av in it:
            prod = semiring.multiply(av, uv)
            acc = prod if acc is None else semiring.combine(acc, prod)
        if acc is not None:
            out[i] = out_type.cast(acc)
    return out


def spgemm_dict(
    a_rows: Dict[int, Dict[int, Any]],
    b_rows: Dict[int, Dict[int, Any]],
    semiring: Semiring,
    out_type: GrBType,
) -> Dict[int, Dict[int, Any]]:
    """Gustavson SpGEMM: C[i,:] = ⊕_k A[i,k] ⊗ B[k,:]."""
    out: Dict[int, Dict[int, Any]] = {}
    for i, arow in a_rows.items():
        crow: Dict[int, Any] = {}
        for k, av in arow.items():
            brow = b_rows.get(k)
            if not brow:
                continue
            for j, bv in brow.items():
                prod = semiring.multiply(av, bv)
                if j in crow:
                    crow[j] = semiring.combine(crow[j], prod)
                else:
                    crow[j] = prod
        if crow:
            out[i] = {j: out_type.cast(v) for j, v in crow.items()}
    return out


def ewise_union_dict(
    u: Dict[int, Any], v: Dict[int, Any], op: BinaryOp, out_type: GrBType
) -> Dict[int, Any]:
    out: Dict[int, Any] = {}
    for k in u.keys() | v.keys():
        if k in u and k in v:
            out[k] = out_type.cast(op(u[k], v[k]))
        elif k in u:
            out[k] = out_type.cast(u[k])
        else:
            out[k] = out_type.cast(v[k])
    return out


def ewise_intersect_dict(
    u: Dict[int, Any], v: Dict[int, Any], op: BinaryOp, out_type: GrBType
) -> Dict[int, Any]:
    small, big, flipped = (u, v, False) if len(u) <= len(v) else (v, u, True)
    out: Dict[int, Any] = {}
    for k, sv in small.items():
        if k in big:
            x, y = (sv, big[k]) if not flipped else (big[k], sv)
            out[k] = out_type.cast(op(x, y))
    return out
