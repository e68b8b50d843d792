"""Betweenness centrality — batched Brandes in GraphBLAS form.

The forward sweep is BFS with path counting: the frontier's values are
numbers of shortest paths (``vxm`` over (PLUS, TIMES) masked by unvisited).
The backward sweep pushes dependency contributions down the BFS DAG with
the transposed product.  This is GBTL's ``bc.hpp`` / the algorithm of
Brandes (2001) restated over semirings; with multiple sources the sweeps
batch naturally (we loop sources, which keeps the code one-vector simple).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core import operations as ops
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.operators import DIV, ONE, PLUS, TIMES
from ..core.semiring import PLUS_TIMES
from ..core.vector import Vector
from ..exceptions import IndexOutOfBoundsError, InvalidValueError
from ..types import FP64

__all__ = ["betweenness_centrality"]

_UNVISITED = Descriptor(complement_mask=True, structural_mask=True, replace=True)


def _single_source_dependencies(g: Matrix, source: int) -> Vector:
    """Brandes dependency vector δ_s(v) for one source."""
    n = g.nrows
    # Forward: sigma[level] = #shortest paths reaching each frontier vertex.
    sigmas = []
    seen = Vector.sparse(FP64, n)
    seen.set_element(source, 1.0)
    frontier = seen.dup()
    while True:
        nxt = Vector.sparse(FP64, n)
        ops.vxm(nxt, frontier, g, PLUS_TIMES, mask=seen, desc=_UNVISITED)
        if not nxt.nvals:
            break
        sigmas.append(nxt.dup())
        ops.ewise_add(seen, seen, nxt, PLUS)
        frontier = nxt
    # The source's own sigma (level 0) sits in front.
    base = Vector.sparse(FP64, n)
    base.set_element(source, 1.0)
    sigmas.insert(0, base)
    # Backward: delta accumulates (sigma_d(w) absent ⇒ no term).
    delta = Vector.sparse(FP64, n)
    for d in range(len(sigmas) - 1, 0, -1):
        w_level = sigmas[d]
        # t = (1 + delta(w)) / sigma(w) on level-d vertices.
        t = Vector.sparse(FP64, n)
        ops.apply(t, delta, PLUS, bind_first=1.0, mask=w_level, desc=Descriptor(structural_mask=True, replace=True))
        # Vertices with no delta yet still contribute 1/sigma.
        missing = Vector.sparse(FP64, n)
        ops.apply(
            missing,
            w_level,
            TIMES,
            bind_first=0.0,
            mask=delta,
            desc=Descriptor(complement_mask=True, structural_mask=True, replace=True),
        )
        ops.apply(missing, missing, PLUS, bind_first=1.0)
        ops.ewise_add(t, t, missing, PLUS)
        ops.ewise_mult(t, t, w_level, DIV)
        # Push along incoming edges: contribution to level d-1 vertices.
        back = Vector.sparse(FP64, n)
        ops.mxv(back, g, t, PLUS_TIMES)
        contrib = Vector.sparse(FP64, n)
        ops.ewise_mult(contrib, back, sigmas[d - 1], TIMES)
        ops.ewise_add(delta, delta, contrib, PLUS)
    return delta


def betweenness_centrality(
    g: Matrix,
    sources: Optional[Sequence[int]] = None,
    normalize: bool = False,
) -> Vector:
    """Betweenness centrality (unweighted shortest paths).

    ``sources=None`` uses every vertex (exact BC); a subset gives the usual
    sampled approximation.  For undirected graphs pass the symmetric
    adjacency and halve externally if you need the undirected convention
    (this function counts directed paths, matching GBTL).
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    # Path *counts* ignore weights: work on the 0/1 pattern.
    pattern = Matrix.sparse(FP64, n, n)
    ops.apply(pattern, g, ONE)
    g = pattern
    srcs: Iterable[int] = range(n) if sources is None else sources
    bc = Vector.sparse(FP64, n)
    for s in srcs:
        if not 0 <= s < n:
            raise IndexOutOfBoundsError(f"source {s} outside [0, {n})")
        delta = _single_source_dependencies(g, s)
        # A vertex's dependency for paths *ending* at it is excluded by
        # construction; its own source term must also be dropped.
        delta.remove_element(s)
        ops.ewise_add(bc, bc, delta, PLUS)
    if normalize and n > 2:
        scale = 1.0 / ((n - 1) * (n - 2))
        ops.apply(bc, bc, TIMES, bind_first=scale)
    return bc
