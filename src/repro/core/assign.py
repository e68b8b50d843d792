"""Assign operations: write a vector/matrix/scalar into a region of another.

Semantics follow ``GxB_subassign`` (the variant GBTL-era code used): the
mask and the ``replace`` flag act only *inside* the assigned region
``I`` (×``J``); entries outside the region are never touched.  Within the
region the standard pipeline applies:

- no accumulator → region positions allowed by the mask take the source
  entry, or become empty when the source has none there;
- accumulator → source entries merge into existing entries;
- ``replace`` → region entries whose mask is false are deleted.

Index lists must be duplicate-free (spec requirement); ``None`` means "all
indices" (``GrB_ALL``).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from ..backends.dispatch import current_backend
from ..containers.bitmap import locate
from ..containers.csr import CSRMatrix, flat_keys
from ..containers.sparsevec import SparseVector
from ..exceptions import DimensionMismatchError, IndexOutOfBoundsError, InvalidValueError
from ..lazy import schedule as _lz
from ..lazy.write import check_mask
from .accumulate import _note_result
from .descriptor import DEFAULT, Descriptor
from .mask import matrix_mask_at, vector_mask_at
from .matrix import Matrix
from .operators import BinaryOp
from .vector import Vector

__all__ = [
    "assign",
    "assign_scalar",
    "assign_row",
    "assign_col",
    "merge_region_vector",
]


def _index_array(idx, dim: int, what: str) -> np.ndarray:
    if idx is None:
        return np.arange(dim, dtype=np.int64)
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size:
        if arr.min() < 0 or arr.max() >= dim:
            raise IndexOutOfBoundsError(f"{what} index outside [0, {dim})")
        if np.unique(arr).size != arr.size:
            raise InvalidValueError(f"duplicate {what} indices in assign")
    return arr


def _merge_region(
    c_keys: np.ndarray,
    c_vals: np.ndarray,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    in_region: np.ndarray,
    mask_at,
    accum: Optional[BinaryOp],
    replace: bool,
    out_dtype: np.dtype,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Write (t_keys, t_vals) into C's sorted (c_keys, c_vals) in a region.

    ``in_region[k]`` tells whether ``c_keys[k]`` lies in the assigned
    region and ``mask_at(keys)`` evaluates the effective mask; every key
    lies in ``[0, keyspace)``.  The incoming keys are region-mapped, so
    they arrive in any order.  Returns the merged sorted (keys, values).
    """
    t_vals = np.asarray(t_vals).astype(out_dtype, copy=False)
    order = np.argsort(t_keys, kind="stable")
    t_keys, t_vals = t_keys[order], t_vals[order]
    allowed_t = mask_at(t_keys)
    t_keys, t_vals = t_keys[allowed_t], t_vals[allowed_t]

    c_masked = mask_at(c_keys)
    if accum is None:
        # Region ∧ mask-true positions are fully rewritten by T.
        drop = in_region & c_masked
    else:
        # Accumulate: existing entries survive; T merges in.
        both, pos = locate(t_keys, c_keys, keyspace)
        drop = np.zeros(c_keys.size, dtype=bool)
        if both.any():
            sel = pos[both]
            merged = np.asarray(accum(c_vals[both], t_vals[sel])).astype(out_dtype)
            t_vals = t_vals.copy()
            t_vals[sel] = merged
            drop = both  # replaced by merged T entries
    if replace:
        drop = drop | (in_region & ~c_masked)
    keys = np.concatenate([c_keys[~drop], t_keys])
    vals = np.concatenate([c_vals[~drop], t_vals])
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def merge_region_vector(
    c: SparseVector,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    region: np.ndarray,
    mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
) -> SparseVector:
    """Write (t_idx, t_vals) into ``c`` restricted to sorted ``region``.

    Public: fused operations (see :mod:`repro.core.fused`) replay the
    scalar-assign region merge at the container level without
    re-validating index lists the caller already knows are canonical.
    """
    idx, vals = _merge_region(
        c.indices,
        c.values,
        t_idx,
        t_vals,
        locate(region, c.indices, c.size)[0],
        lambda pos: vector_mask_at(mask, desc, pos),
        accum,
        desc.replace,
        c.type.dtype,
        c.size,
    )
    return SparseVector(c.size, idx, vals, c.type)


def _merge_region_matrix(
    c: CSRMatrix,
    t_rows: np.ndarray,
    t_cols: np.ndarray,
    t_vals: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
) -> CSRMatrix:
    """:func:`merge_region_vector` over C's row-major keys; the region is
    the product of the sorted ``rows`` and ``cols``."""
    c_rows = c.row_ids()
    keys, vals = _merge_region(
        flat_keys(c_rows, c.indices, c.ncols),
        c.values,
        flat_keys(t_rows, t_cols, c.ncols),
        t_vals,
        locate(rows, c_rows, c.nrows)[0] & locate(cols, c.indices, c.ncols)[0],
        lambda pos: matrix_mask_at(mask, desc, pos),
        accum,
        desc.replace,
        c.type.dtype,
        c.nrows * c.ncols,
    )
    return CSRMatrix.from_flat_keys(c.nrows, c.ncols, keys, vals, c.type)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def assign(
    out,
    src,
    indices=None,
    cols=None,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out(indices[, cols])<mask> accum= src`` — region assignment.

    Vector form: ``assign(w, u, I)`` with ``len(I) == u.size``.
    Matrix form: ``assign(C, A, I, J)`` with ``(len(I), len(J)) == A.shape``.
    """
    if isinstance(out, Vector):
        idx = _index_array(indices, out.size, "target")
        if idx.size != src.size:
            raise DimensionMismatchError(
                "assign source size", expected=idx.size, actual=src.size
            )
        check_mask(mask, out.size)
        be = current_backend()
        region = np.sort(idx)

        def run(inp, params):
            sc = inp["src"]
            be.charge_assign(sc.nvals, inp["out"])
            return _note_result(merge_region_vector(
                inp["out"],
                idx[sc.indices],
                sc.values,
                region,
                inp.get("mask"),
                accum,
                desc,
            ))

        return _lz.emit(
            "assign_v",
            run,
            {
                "src": _lz.arg(src),
                "mask": _lz.arg_mask(mask),
                "out": _lz.arg(out),
            },
            {"desc": desc},
            (out,),
        )
    r = _index_array(indices, out.nrows, "row")
    s = _index_array(cols, out.ncols, "column")
    if (r.size, s.size) != src.shape:
        raise DimensionMismatchError(
            "assign source shape", expected=(r.size, s.size), actual=src.shape
        )
    sc = src.container
    current_backend().charge_assign(sc.nvals, out)
    return out._replace(
        _note_result(_merge_region_matrix(
            out.container,
            r[sc.row_ids()],
            s[sc.indices],
            sc.values,
            np.sort(r),
            np.sort(s),
            mask.container if mask is not None else None,
            accum,
            desc,
        ))
    )


def assign_scalar(
    out,
    value: Any,
    indices=None,
    cols=None,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out(indices[, cols])<mask> accum= value`` — constant fill.

    Unlike matrix/vector assign, every region position receives an entry.
    """
    if isinstance(out, Vector):
        idx = _index_array(indices, out.size, "target")
        check_mask(mask, out.size)
        vals = np.full(idx.size, out.type.cast(value), dtype=out.type.dtype)
        be = current_backend()
        region = np.sort(idx)
        # A full-region unmasked, unaccumulated fill overwrites every
        # position: the result is independent of the prior values, which is
        # what lets the optimizer treat the fill as a pure constant source
        # (dead-materialization + fill→ewise fusion).
        fill = indices is None and mask is None and accum is None

        def run(inp, params):
            be.charge_assign(idx.size, inp["out"])
            return _note_result(merge_region_vector(
                inp["out"],
                idx.copy(),
                vals,
                region,
                inp.get("mask"),
                accum,
                desc,
            ))

        return _lz.emit(
            "assign_scalar_v",
            run,
            {
                "mask": _lz.arg_mask(mask),
                "out": out._container if fill else _lz.arg(out),
            },
            {"fill": fill, "value": value, "n": out.size, "desc": desc},
            (out,),
        )
    r = _index_array(indices, out.nrows, "row")
    s = _index_array(cols, out.ncols, "column")
    rr = np.repeat(r, s.size)
    cc = np.tile(s, r.size)
    vals = np.full(rr.size, out.type.cast(value), dtype=out.type.dtype)
    current_backend().charge_assign(rr.size, out)
    return out._replace(
        _note_result(_merge_region_matrix(
            out.container,
            rr,
            cc,
            vals,
            np.sort(r),
            np.sort(s),
            mask.container if mask is not None else None,
            accum,
            desc,
        ))
    )


def assign_row(
    c: Matrix,
    u: Vector,
    i: int,
    cols=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C(i, cols)<mask> accum= u`` (GrB_Row_assign).

    The mask, when given, is a vector over the row's columns; it is lifted
    to a one-row matrix mask internally.
    """
    mat_mask = _lift_row_mask(mask, c, i)
    s = _index_array(cols, c.ncols, "column")
    if s.size != u.size:
        raise DimensionMismatchError("row assign size", expected=s.size, actual=u.size)
    uc = u.container
    current_backend().charge_assign(uc.nvals, c)
    return c._replace(
        _note_result(_merge_region_matrix(
            c.container,
            np.full(uc.nvals, i, dtype=np.int64),
            s[uc.indices],
            uc.values,
            np.array([i], dtype=np.int64),
            np.sort(s),
            mat_mask,
            accum,
            desc,
        ))
    )


def assign_col(
    c: Matrix,
    u: Vector,
    j: int,
    rows=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C(rows, j)<mask> accum= u`` (GrB_Col_assign)."""
    mat_mask = _lift_col_mask(mask, c, j)
    r = _index_array(rows, c.nrows, "row")
    if r.size != u.size:
        raise DimensionMismatchError("col assign size", expected=r.size, actual=u.size)
    uc = u.container
    current_backend().charge_assign(uc.nvals, c)
    return c._replace(
        _note_result(_merge_region_matrix(
            c.container,
            r[uc.indices],
            np.full(uc.nvals, j, dtype=np.int64),
            uc.values,
            np.sort(r),
            np.array([j], dtype=np.int64),
            mat_mask,
            accum,
            desc,
        ))
    )


def _lift_row_mask(mask: Optional[Vector], c: Matrix, i: int) -> Optional[CSRMatrix]:
    """Vector mask over columns -> C-shaped one-row matrix mask."""
    if mask is None:
        return None
    mc = mask.container
    indptr = np.zeros(c.nrows + 1, dtype=np.int64)
    indptr[i + 1 :] = mc.nvals
    return CSRMatrix(c.nrows, c.ncols, indptr, mc.indices.copy(), mc.values.copy(), mc.type)


def _lift_col_mask(mask: Optional[Vector], c: Matrix, j: int) -> Optional[CSRMatrix]:
    """Vector mask over rows -> C-shaped one-column matrix mask."""
    if mask is None:
        return None
    mc = mask.container
    cols = np.full(mc.nvals, j, dtype=np.int64)
    return CSRMatrix.from_rows(c.nrows, c.ncols, mc.indices, cols, mc.values.copy(), mc.type)
