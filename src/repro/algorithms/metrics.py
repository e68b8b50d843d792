"""Graph metrics: degrees, density, symmetry, eccentricity, diameter.

Small utilities built on the primitive set — the ``metrics.hpp`` collection
of GBTL.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import operations as ops
from ..core.descriptor import TRANSPOSE_A
from ..core.matrix import Matrix
from ..core.monoid import MAX_MONOID, PLUS_MONOID
from ..core.operators import ONE
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import INT64
from .bfs import bfs_levels

__all__ = [
    "out_degrees",
    "in_degrees",
    "graph_density",
    "is_symmetric",
    "vertex_eccentricity",
    "graph_diameter",
    "average_degree",
    "vertex_count",
    "edge_count",
]


def out_degrees(g: Matrix) -> Vector:
    """Number of stored out-edges per vertex (no entry for isolated rows)."""
    pattern = Matrix.sparse(INT64, g.nrows, g.ncols)
    ops.apply(pattern, g, ONE)
    deg = Vector.sparse(INT64, g.nrows)
    ops.reduce_to_vector(deg, pattern, PLUS_MONOID)
    return deg


def in_degrees(g: Matrix) -> Vector:
    """Number of stored in-edges per vertex."""
    pattern = Matrix.sparse(INT64, g.nrows, g.ncols)
    ops.apply(pattern, g, ONE)
    deg = Vector.sparse(INT64, g.ncols)
    ops.reduce_to_vector(deg, pattern, PLUS_MONOID, desc=TRANSPOSE_A)
    return deg


def vertex_count(g: Matrix) -> int:
    """Number of vertices (the adjacency dimension)."""
    return g.nrows


def edge_count(g: Matrix, directed: bool = True) -> int:
    """Stored entries; halved for the undirected convention."""
    return g.nvals if directed else g.nvals // 2


def average_degree(g: Matrix) -> float:
    """Mean stored out-degree, nvals / n (0 for the empty graph)."""
    return g.nvals / g.nrows if g.nrows else 0.0


def graph_density(g: Matrix) -> float:
    """nvals / (n·(n-1)) — fraction of possible directed edges present."""
    n = g.nrows
    possible = n * (n - 1)
    return g.nvals / possible if possible else 0.0


def is_symmetric(g: Matrix) -> bool:
    """True iff ``g`` equals its transpose (structure and values)."""
    if g.nrows != g.ncols:
        return False
    t = Matrix.sparse(g.type, g.nrows, g.ncols)
    ops.transpose(t, g)
    return t == g


def vertex_eccentricity(g: Matrix, v: int) -> int:
    """Max BFS level reachable from ``v`` (0 for isolated vertices)."""
    levels = bfs_levels(g, v)
    if not levels.nvals:
        return 0
    return int(ops.reduce(levels, MAX_MONOID))


def graph_diameter(g: Matrix, sample: Optional[int] = None, seed: int = 0) -> int:
    """Exact diameter (max eccentricity over all vertices), or a lower
    bound from ``sample`` random sources for large graphs.

    Unreachable pairs are ignored (per-component eccentricities).
    """
    n = g.nrows
    if n == 0:
        return 0
    if sample is None or sample >= n:
        sources = range(n)
    else:
        if sample <= 0:
            raise InvalidValueError(f"sample must be positive, got {sample}")
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=sample, replace=False)
    return max(vertex_eccentricity(g, int(s)) for s in sources)
