"""Triangle counting via masked SpGEMM (the Cohen / Sandia formulation).

With L the strictly-lower-triangular part of an undirected adjacency matrix,
``C<L> = L ⊗ L`` over the (PLUS, PAIR) semiring counts, for every edge
(i, j) with j < i, the wedges through a vertex k with j > k — i.e. each
triangle exactly once with its vertices ordered.  The global count is then
``reduce(C, +)``.  This is the benchmark kernel of the GraphBLAS triangle-
counting literature and exercises masked mxm.
"""

from __future__ import annotations

from ..core import operations as ops
from ..core.descriptor import STRUCTURE_MASK
from ..core.matrix import Matrix
from ..core.monoid import PLUS_MONOID
from ..core.operators import TRIL
from ..core.semiring import PLUS_PAIR
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import INT64

__all__ = ["triangle_count", "triangles_per_vertex", "lower_triangle"]


def lower_triangle(g: Matrix) -> Matrix:
    """Strictly lower-triangular part of ``g`` (diagonal excluded)."""
    l = Matrix.sparse(g.type, g.nrows, g.ncols)
    ops.select(l, g, TRIL, thunk=-1)
    return l


def triangle_count(g: Matrix) -> int:
    """Number of triangles in the undirected graph ``g``.

    ``g`` must be symmetric (undirected); self-loops are ignored via the
    strict triangle selection.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    l = lower_triangle(g)
    c = Matrix.sparse(INT64, g.nrows, g.ncols)
    ops.mxm(c, l, l, PLUS_PAIR, mask=l, desc=STRUCTURE_MASK)
    return int(ops.reduce(c, PLUS_MONOID))


def triangles_per_vertex(g: Matrix) -> Vector:
    """Triangles incident to each vertex.

    Uses ``C<A> = A ⊗ A`` over (PLUS, PAIR) on the full symmetric adjacency:
    row-sums of C count ordered wedges closing at each vertex; each incident
    triangle contributes 2 (both orientations), so halve.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    c = Matrix.sparse(INT64, g.nrows, g.ncols)
    ops.mxm(c, g, g, PLUS_PAIR, mask=g, desc=STRUCTURE_MASK)
    per = Vector.sparse(INT64, g.nrows)
    ops.reduce_to_vector(per, c, PLUS_MONOID)
    half = Vector.sparse(INT64, g.nrows)
    from ..core.operators import DIV

    ops.apply(half, per, DIV, bind_second=2)
    return half
