"""Greedy graph coloring by iterated maximal independent sets.

The Jones–Plassmann-style GraphBLAS formulation: peel one MIS from the
remaining graph per round and give it the next color.  Every color class is
independent by construction, and every vertex is colored when the loop
drains; the number of colors is within the usual greedy bounds (≤ Δ+1 in
expectation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import operations as ops
from ..core.assign import assign_scalar
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.operators import IDENTITY, LAND
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import BOOL, INT64
from .mis import mis

__all__ = ["greedy_color", "verify_coloring"]

_NOT_IN_MASK = Descriptor(complement_mask=True, structural_mask=True, replace=True)


def _induced_subgraph(g: Matrix, keep: Vector) -> Matrix:
    """Adjacency restricted to the ``keep`` vertex set (same dimensions)."""
    idx = keep.indices_array()
    sub = Matrix.sparse(g.type, g.nrows, g.ncols)
    # Keep entries whose row and column both survive: two masked selects.
    cc = g.container
    rows = cc.row_ids()
    alive = np.zeros(g.nrows, dtype=bool)
    alive[idx] = True
    hold = alive[rows] & alive[cc.indices]
    return Matrix.from_lists(
        rows[hold], cc.indices[hold], cc.values[hold], g.nrows, g.ncols, g.type
    )


def greedy_color(g: Matrix, seed: Optional[int] = None, max_colors: int = 0) -> Vector:
    """Color assignment (dense INT64, colors numbered from 0).

    ``g`` must be symmetric.  Deterministic for a fixed ``seed``.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    colors = Vector.sparse(INT64, n)
    remaining = Vector.full(True, n, BOOL)
    sub = g
    color = 0
    limit = max_colors if max_colors > 0 else n + 1
    rng = np.random.default_rng(seed)
    while remaining.nvals and color < limit:
        layer = mis(sub, seed=int(rng.integers(1 << 31)))
        # Restrict the MIS to still-uncolored vertices (isolated vertices of
        # the shrinking subgraph are all "independent" there).
        chosen = Vector.sparse(BOOL, n)
        ops.ewise_mult(chosen, layer, remaining, LAND)
        if not chosen.nvals:
            break
        assign_scalar(colors, color, indices=chosen.indices_array())
        nxt = Vector.sparse(BOOL, n)
        ops.apply(nxt, remaining, IDENTITY, mask=chosen, desc=_NOT_IN_MASK)
        remaining = nxt
        sub = _induced_subgraph(g, remaining) if remaining.nvals else sub
        color += 1
    return colors


def verify_coloring(g: Matrix, colors: Vector) -> bool:
    """True iff every vertex is colored and no edge is monochromatic."""
    if colors.nvals != g.nrows:
        return False
    col = colors.to_dense(-1)
    cc = g.container
    return not np.any(col[cc.row_ids()] == col[cc.indices])
