"""Shared edge-list post-processing for all generators."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..containers.convert import build_matrix
from ..core.matrix import Matrix
from ..core.operators import FIRST
from ..types import FP64, GrBType

__all__ = ["finalize_edges"]


def finalize_edges(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weighted: bool = False,
    directed: bool = False,
    typ: GrBType = FP64,
    seed: Optional[int] = None,
    max_weight: float = 256.0,
) -> Matrix:
    """Edge endpoints -> canonical adjacency Matrix.

    Removes self-loops, collapses duplicates (keeping the first weight, so
    results are deterministic for a fixed seed), optionally symmetrises, and
    attaches weights (uniform [1, max_weight) when ``weighted``, else 1).
    For undirected graphs duplicates are collapsed on the *unordered* pair
    before mirroring, guaranteeing a symmetric weight matrix; the container
    records it (:attr:`~repro.containers.csr.CSRMatrix.symmetric`), so
    consumers of Aᵀ read A itself.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    if not directed:
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        # Unique unordered pairs, keeping first occurrence (stable).
        key = lo * np.int64(n) + hi
        _, first_pos = np.unique(key, return_index=True)
        first_pos.sort()
        lo, hi = lo[first_pos], hi[first_pos]
        m = lo.size
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
    if weighted:
        rng = np.random.default_rng(None if seed is None else seed + 0x5EED)
        if directed:
            vals = rng.uniform(1.0, max_weight, rows.size).astype(typ.dtype)
        else:
            w = rng.uniform(1.0, max_weight, m).astype(typ.dtype)
            vals = np.concatenate([w, w])
    else:
        vals = np.ones(rows.size, dtype=typ.dtype)
    csr = build_matrix(n, n, rows, cols, vals, typ, dup=FIRST)
    return Matrix(csr if directed else csr._mark_symmetric())
