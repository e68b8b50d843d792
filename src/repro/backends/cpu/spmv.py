"""Vectorized sparse matrix–vector kernels (mxv / vxm).

Two strategies, the classic GBTL-CUDA/direction-optimizing pair:

- **pull** (row gather): for each output row, intersect the matrix row with
  the input vector.  Cost ~O(nnz(A)) independent of frontier size, but a
  non-complemented mask restricts the computed rows — the pull-BFS win.
- **push** (column scatter): expand only the rows of the (logically
  transposed) matrix selected by the input vector's present entries, then
  sort-and-reduce by output index.  Cost ~O(Σ deg(frontier)) — the sparse
  frontier win.

Both reduce with :func:`~repro.backends.cpu.segments.segment_reduce`.  The
``flip`` flag makes one kernel serve mxv and vxm (the semiring multiply is
not commutative in general: mxv computes ``mult(A_ij, u_j)``, vxm computes
``mult(u_k, A_kj)``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...containers.bitmap import dense_keyspace_ok, locate
from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.mask import vector_mask_at
from ...core.semiring import Semiring
from ...types import GrBType
from .fastpath import fast_reduce_by_key
from .segments import run_starts, segment_reduce

__all__ = [
    "row_gather_product",
    "scatter_product",
    "choose_direction",
    "mask_row_candidates",
    "mask_pull_rows",
    "take_ranges",
]


def take_ranges(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """Gather index array covering ``indices[indptr[r]:indptr[r+1]]`` per row.

    Returns ``(take, lens)`` where ``take`` indexes the flat nnz arrays and
    ``lens[k]`` is the run length of ``rows[k]``.  This is the standard
    "expand variable-length slices without a Python loop" trick.
    """
    lo = indptr[rows]
    lens = indptr[rows + 1] - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    take = np.arange(total, dtype=np.int64) + np.repeat(lo - seg_starts, lens)
    return take, lens


def mask_row_candidates(
    mask: Optional[SparseVector], desc: Descriptor
) -> Optional[np.ndarray]:
    """Rows a non-complemented mask allows, or None when pruning is unsafe."""
    if mask is None or desc.complement_mask:
        return None
    if desc.structural_mask:
        return mask.indices
    return mask.indices[mask.values.astype(bool)]


def mask_pull_rows(
    mask: Optional[SparseVector], desc: Descriptor, nrows: int
) -> Optional[np.ndarray]:
    """Rows worth computing in a pull kernel under the effective mask.

    Extends :func:`mask_row_candidates` to complemented masks: there, the
    allowed rows are everything *except* the mask's fired positions (BFS's
    visited set).  Complement pruning only pays once the excluded set is a
    meaningful fraction of the graph, so small complements return None
    (compute all rows) rather than an almost-complete row list.
    """
    if mask is None:
        return None
    if not desc.complement_mask:
        return mask_row_candidates(mask, desc)
    truthy = (
        mask.indices
        if desc.structural_mask
        else mask.indices[mask.values.astype(bool)]
    )
    if truthy.size * 4 < nrows:
        return None
    allowed = np.ones(nrows, dtype=bool)
    allowed[truthy] = False
    return np.flatnonzero(allowed).astype(np.int64)


def _products(a_vals: np.ndarray, u_vals: np.ndarray, semiring: Semiring, flip: bool):
    if flip:
        return semiring.mult(u_vals, a_vals)
    return semiring.mult(a_vals, u_vals)


def row_gather_product(
    csr: CSRMatrix,
    u: SparseVector,
    semiring: Semiring,
    out_type: GrBType,
    flip: bool = False,
    rows: Optional[np.ndarray] = None,
) -> SparseVector:
    """Pull kernel: ``t[i] = ⊕_j mult'(csr[i,j], u[j])`` over selected rows."""
    n_out = csr.nrows
    if csr.nvals == 0 or u.nvals == 0:
        return SparseVector.empty(n_out, out_type)
    if rows is None:
        flat_idx = csr.indices
        flat_vals = csr.values
        row_ids = csr.row_ids()
    else:
        rows = np.asarray(rows, dtype=np.int64)
        take, lens = take_ranges(csr.indptr, rows)
        flat_idx = csr.indices[take]
        flat_vals = csr.values[take]
        row_ids = np.repeat(rows, lens)
    if u.nvals == u.size:
        # Dense-vector fast path: every column is present, so the membership
        # probe collapses to a direct gather — the win that makes pull the
        # right direction for dense frontiers (Fig. 5).
        prods = np.asarray(_products(flat_vals, u.values[flat_idx], semiring, flip))
        keys = row_ids
    else:
        # Membership of each stored column in u.
        hit, pos = locate(u.indices, flat_idx, u.size)
        if not hit.any():
            return SparseVector.empty(n_out, out_type)
        prods = np.asarray(
            _products(flat_vals[hit], u.values[pos[hit]], semiring, flip)
        )
        keys = row_ids[hit]  # already sorted: CSR order is row-major
    starts = run_starts(keys)
    out_vals = segment_reduce(prods, starts, semiring.add, out_type.dtype)
    return SparseVector(n_out, keys[starts], out_vals, out_type)


def scatter_product(
    csr: CSRMatrix,
    u: SparseVector,
    semiring: Semiring,
    out_type: GrBType,
    flip: bool = False,
    mask: Optional[SparseVector] = None,
    desc: Descriptor = DEFAULT,
) -> SparseVector:
    """Push kernel: ``t[j] = ⊕_{k present in u} mult'(csr[k,j], u[k])``.

    When ``mask``/``desc`` are given, expanded entries whose output position
    the effective mask forbids are dropped *before* the multiply and the
    reduction (mask fusion).  This commutes with the write pipeline: a T
    entry at a mask-false position never survives the merge, with or without
    accumulate/replace, so pre-filtering is always semantics-preserving —
    and for BFS it means products into the visited set are never formed.

    The reduction is sort-free for standard additive monoids (see
    :mod:`.fastpath`); unknown monoids keep the stable-sort + segment-reduce
    path, which is bit-identical.
    """
    n_out = csr.ncols
    if csr.nvals == 0 or u.nvals == 0:
        return SparseVector.empty(n_out, out_type)
    take, lens = take_ranges(csr.indptr, u.indices)
    if take.size == 0:
        return SparseVector.empty(n_out, out_type)
    cols = csr.indices[take]
    a_vals = csr.values[take]
    u_vals = np.repeat(u.values, lens)
    if mask is not None:
        keep = vector_mask_at(mask, desc, cols)
        if not keep.all():
            cols = cols[keep]
            a_vals = a_vals[keep]
            u_vals = u_vals[keep]
        if cols.size == 0:
            return SparseVector.empty(n_out, out_type)
    prods = np.asarray(_products(a_vals, u_vals, semiring, flip))
    if dense_keyspace_ok(n_out, cols.size):
        fast = fast_reduce_by_key(cols, prods, n_out, semiring.add)
        if fast is not None:
            keys, vals = fast
            return SparseVector(
                n_out, keys, vals.astype(out_type.dtype, copy=False), out_type
            )
    order = np.argsort(cols, kind="stable")  # gbsan: ok(argsort) -- generic fallback; hot shapes take the sort-free fastpath
    keys = cols[order]
    prods = prods[order]
    starts = run_starts(keys)
    out_vals = segment_reduce(prods, starts, semiring.add, out_type.dtype)
    return SparseVector(n_out, keys[starts], out_vals, out_type)


def choose_direction(
    a: CSRMatrix,
    u: SparseVector,
    mask: Optional[SparseVector],
    desc: Descriptor,
    direction: str,
    flip: bool,
) -> str:
    """Resolve "auto" into "push" or "pull".

    Push wins when the frontier is small: its cost is the frontier's exact
    total degree in the matrix push expands (Aᵀ for mxv, ``flip=False``; A
    for vxm, ``flip=True``), versus pull's cost of nnz(A), or the exact
    degree sum of the mask-allowed rows of the matrix pull reads.  Both
    sides read the version-cached :meth:`~CSRMatrix.row_degrees` (rows of
    A) and :meth:`~CSRMatrix.in_degrees` (rows of Aᵀ), so deciding builds
    no transpose.  R-MAT frontiers are heavy-tailed, which is why the cost
    is the exact O(frontier) degree sum and not ``u.nvals · avg_deg``.
    """
    if direction in ("push", "pull"):
        return direction
    push_deg, pull_deg = (
        (a.row_degrees(), a.in_degrees()) if flip else (a.in_degrees(), a.row_degrees())
    )
    # Sort-free push no longer pays the old 4× sort penalty; keep a 2×
    # margin for its scattered (atomic-like) writes.
    push_cost = float(push_deg[u.indices].sum()) * 2.0
    # The mask covers the output vector, whose length is the pull-side row
    # count (a.nrows for mxv, a.ncols for vxm) — so size the complement off it.
    rows = mask_pull_rows(mask, desc, mask.size) if mask is not None else None
    pull_cost = float(a.nvals) if rows is None else float(pull_deg[rows].sum())
    return "push" if push_cost < pull_cost else "pull"
