"""k-core decomposition via iterated degree filtering.

The k-core is the maximal subgraph where every vertex has degree ≥ k inside
the subgraph.  One GraphBLAS round computes surviving degrees (row reduce of
the induced pattern) and drops under-degree vertices with a masked extract;
iterate to fixpoint.  :func:`core_numbers` peels k = 1, 2, ... to label every
vertex with its coreness — the standard peeling formulation.
"""

from __future__ import annotations

import numpy as np

from ..core import operations as ops
from ..core.assign import assign_scalar
from ..core.matrix import Matrix
from ..core.operators import ONE, VALUEGE
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import INT64

__all__ = ["kcore", "core_numbers"]


def _induced_degrees(g: Matrix, alive: Vector) -> Vector:
    """Degrees within the subgraph induced by the ``alive`` vertex set."""
    from ..core.semiring import PLUS_SECOND

    # deg[i] = Σ_j A[i,j]·alive[j] over (PLUS, SECOND) with alive values 1.
    deg = Vector.sparse(INT64, g.nrows)
    ops.mxv(deg, g, alive, PLUS_SECOND)
    # Rows of dead vertices must not count.
    out = Vector.sparse(INT64, g.nrows)
    from ..core.descriptor import STRUCTURE_MASK
    from ..core.operators import IDENTITY

    ops.apply(out, deg, IDENTITY, mask=alive, desc=STRUCTURE_MASK)
    return out


def kcore(g: Matrix, k: int) -> Vector:
    """BOOL vector marking the vertices of the k-core (possibly empty).

    ``g`` must be a symmetric adjacency matrix; values are ignored.
    """
    if k < 0:
        raise InvalidValueError(f"k must be nonnegative, got {k}")
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    alive = Vector.full(1, n, INT64)
    while True:
        deg = _induced_degrees(g, alive)
        survivors = Vector.sparse(INT64, n)
        ops.select(survivors, deg, VALUEGE, thunk=k)
        from ..core.operators import ONE as _ONE

        next_alive = Vector.sparse(INT64, n)
        ops.apply(next_alive, survivors, _ONE)
        if next_alive.nvals == alive.nvals:
            break
        alive = next_alive
        if not alive.nvals:
            break
    from ..types import BOOL

    out = Vector.sparse(BOOL, n)
    ops.apply(out, alive, ONE)
    return out


def core_numbers(g: Matrix) -> Vector:
    """Coreness of every vertex (INT64, dense; isolated vertices get 0).

    Peels cores k = 1, 2, … until the graph empties; each vertex's core
    number is the largest k whose k-core contains it.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    out = Vector.from_lists(
        np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64), n, INT64
    )
    k = 1
    while True:
        members = kcore(g, k)
        if not members.nvals:
            break
        assign_scalar(out, k, indices=members.indices_array())
        k += 1
    return out
