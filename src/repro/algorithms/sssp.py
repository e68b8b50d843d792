"""Single-source shortest paths over the (MIN, PLUS) tropical semiring.

Two variants:

- :func:`sssp_bellman_ford` — the textbook relax-everything iteration
  ``d = min(d, d ⊗ A)``, n-1 rounds max, with negative-cycle detection;
- :func:`sssp` — the frontier-filtered variant (only vertices whose
  distance improved propagate next round), the GraphBLAS idiom GBTL uses;
  asymptotically the same but far less work on high-diameter graphs.

Both require nonnegative weights for meaningful early exit on the filtered
variant; Bellman–Ford itself is correct for negative weights (no negative
cycles).
"""

from __future__ import annotations

from ..core import operations as ops
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.operators import EQ, IDENTITY, MIN
from ..core.semiring import MIN_PLUS
from ..core.vector import Vector
from ..exceptions import ExecutionError, IndexOutOfBoundsError
from ..types import BOOL, FP64

__all__ = ["sssp", "sssp_bellman_ford"]


class NegativeCycleError(ExecutionError):
    """Raised when Bellman–Ford fails to converge in n-1 rounds."""


def _init_dist(g: Matrix, source: int) -> Vector:
    if not 0 <= source < g.nrows:
        raise IndexOutOfBoundsError(f"source {source} outside [0, {g.nrows})")
    d = Vector.sparse(FP64, g.nrows)
    d.set_element(source, 0.0)
    return d


def sssp_bellman_ford(g: Matrix, source: int) -> Vector:
    """Distances from ``source``; unreachable vertices have no entry.

    ``g[i, j]`` is the weight of edge i→j.  Raises
    :class:`NegativeCycleError` if distances still improve after n-1
    relaxation rounds.
    """
    n = g.nrows
    d = _init_dist(g, source)
    for _ in range(max(n - 1, 1)):
        t = Vector.sparse(FP64, n)
        ops.vxm(t, d, g, MIN_PLUS)
        new_d = Vector.sparse(FP64, n)
        ops.ewise_add(new_d, d, t, MIN)
        if new_d == d:
            return d
        d = new_d
    # One more round: any further improvement implies a negative cycle.
    t = Vector.sparse(FP64, n)
    ops.vxm(t, d, g, MIN_PLUS)
    probe = Vector.sparse(FP64, n)
    ops.ewise_add(probe, d, t, MIN)
    if probe == d:
        return d
    raise NegativeCycleError("graph contains a negative-weight cycle")


def sssp(g: Matrix, source: int, direction: str = "auto") -> Vector:
    """Frontier-filtered SSSP (nonnegative weights).

    Each round only the vertices whose tentative distance improved last
    round relax their out-edges; terminates when the frontier drains.
    """
    n = g.nrows
    d = _init_dist(g, source)
    frontier = d.dup()
    while frontier.nvals:
        t = Vector.sparse(FP64, n)
        ops.vxm(t, frontier, g, MIN_PLUS, direction=direction)
        old = d.dup()
        ops.ewise_add(d, old, t, MIN)
        # New frontier: entries of d that differ from old (new or improved).
        unchanged = Vector.sparse(BOOL, n)
        ops.ewise_mult(unchanged, d, old, EQ)
        frontier = Vector.sparse(FP64, n)
        ops.apply(
            frontier,
            d,
            IDENTITY,
            mask=unchanged,
            desc=Descriptor(complement_mask=True, replace=True),
        )
    return d
