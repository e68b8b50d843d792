"""R-MAT / Kronecker graph generator (Graph500 style).

The workload of record for GPU graph papers: recursively partition the
adjacency matrix into quadrants with probabilities (a, b, c, d) and drop
each edge into one, bit by bit.  Defaults are the Graph500 parameters
(0.57, 0.19, 0.19, 0.05) producing the skewed degree distributions that
stress warp-divergence handling — exactly why GBTL-CUDA-era papers bench on
them.

Generation is fully vectorized: one RNG draw per (edge, level).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.matrix import Matrix
from ..exceptions import InvalidValueError
from ..types import FP64, GrBType
from .common import finalize_edges

__all__ = ["rmat", "rmat_edges"]


def rmat_edges(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw R-MAT edge endpoints (with duplicates and self-loops).

    ``2**scale`` vertices, ``edge_factor * 2**scale`` generated edges.
    """
    d = 1.0 - (a + b + c)
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise InvalidValueError(f"invalid R-MAT probabilities ({a}, {b}, {c}, {d})")
    if scale < 0:
        raise InvalidValueError(f"negative scale {scale}")
    n_edges = edge_factor << scale
    rng = np.random.default_rng(seed)
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    # Per level: P(row bit set) = c + d, P(col bit set | row bit) differs.
    ab = a + b
    for _ in range(scale):
        r = rng.random(n_edges)
        row_bit = r >= ab  # falls in lower half (c or d quadrant)
        r2 = rng.random(n_edges)
        # Conditional column-bit probability within each half.
        col_bit = np.where(
            row_bit,
            r2 >= c / max(c + d, 1e-300),
            r2 >= a / max(ab, 1e-300),
        )
        rows = (rows << 1) | row_bit
        cols = (cols << 1) | col_bit
    return rows, cols


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
    weighted: bool = False,
    directed: bool = False,
    typ: GrBType = FP64,
) -> Matrix:
    """R-MAT adjacency matrix with ``2**scale`` vertices.

    Self-loops are removed and duplicate edges collapsed; ``directed=False``
    symmetrises (the Graph500 convention).  ``weighted`` draws uniform
    weights in [1, 256) (Graph500 SSSP kernel convention), else all edges
    weigh 1.
    """
    rows, cols = rmat_edges(scale, edge_factor, a, b, c, seed)
    n = 1 << scale
    return finalize_edges(
        n, rows, cols, weighted=weighted, directed=directed, typ=typ, seed=seed
    )
