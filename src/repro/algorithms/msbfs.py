"""Multi-source BFS — batched frontiers as a Boolean matrix.

Where single-source BFS iterates masked ``vxm``, the batched version keeps
one frontier *per source* as the rows of a k×n Boolean matrix and advances
all of them with one masked ``mxm`` per level — the formulation that turns
many small SpMSpV calls into one big SpGEMM, which is how GPU backends
amortise launch overhead for workloads like batched betweenness centrality.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core import operations as ops
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.operators import FIRST
from ..core.semiring import LOR_LAND
from ..exceptions import (
    IndexOutOfBoundsError,
    InvalidValueError,
    NotImplementedInBackendError,
)
from ..types import BOOL, INT64

__all__ = ["bfs_levels_multi"]

_UNVISITED = Descriptor(complement_mask=True, structural_mask=True, replace=True)


def bfs_levels_multi(
    g: Matrix,
    sources: Sequence[int],
    direction: str = "auto",
    max_level: Optional[int] = None,
) -> Matrix:
    """k×n level matrix: row k holds BFS levels from ``sources[k]``.

    Unreached (source, vertex) pairs have no entry.  Matches
    :func:`~repro.algorithms.bfs.bfs_levels` row by row.

    The batched formulation advances every frontier with one push-style
    masked ``mxm`` per level, so ``direction`` accepts ``"auto"`` and
    ``"push"`` (both name the same product) and rejects ``"pull"`` — a
    pull-direction batched traversal would need a transposed-gather SpGEMM
    no backend implements; callers that need pull should run
    :func:`~repro.algorithms.bfs.bfs_levels` per source instead.

    ``max_level`` bounds the traversal: levels are recorded up to
    ``max_level`` inclusive (hop-bounded serving queries stop here rather
    than running every frontier to fixpoint).  ``None`` means no bound.
    """
    if direction not in ("auto", "push", "pull"):
        raise InvalidValueError(
            f"direction must be 'auto', 'push' or 'pull', got {direction!r}"
        )
    if direction == "pull":
        raise NotImplementedInBackendError(
            "batched multi-source BFS always advances frontiers with a "
            "push-style mxm; pull is not available — run bfs_levels per "
            "source for a pull traversal"
        )
    if max_level is not None and max_level < 0:
        raise InvalidValueError(f"max_level must be >= 0, got {max_level}")
    n = g.nrows
    srcs = list(sources)
    if not srcs:
        return Matrix.sparse(INT64, 0, n)
    for s in srcs:
        if not 0 <= s < n:
            raise IndexOutOfBoundsError(f"source {s} outside [0, {n})")
    if len(set(srcs)) != len(srcs):
        raise InvalidValueError("duplicate sources in multi-source BFS")
    k = len(srcs)
    levels = Matrix.sparse(INT64, k, n)
    frontier = Matrix.from_lists(
        np.arange(k, dtype=np.int64),
        np.asarray(srcs, dtype=np.int64),
        np.ones(k, dtype=bool),
        k,
        n,
        BOOL,
    )
    depth = 0
    limit = n if max_level is None else max_level
    while frontier.nvals and depth <= limit:
        # Record depth at the new frontier: union keeping older entries.
        fc = frontier.container
        stamped = Matrix.from_lists(
            fc.row_ids(),
            fc.indices,
            np.full(fc.nvals, depth, dtype=np.int64),
            k,
            n,
            INT64,
        )
        merged = Matrix.sparse(INT64, k, n)
        ops.ewise_add(merged, levels, stamped, FIRST)
        levels._replace(merged.container)
        # All frontiers advance with one masked mxm.
        ops.mxm(frontier, frontier, g, LOR_LAND, mask=levels, desc=_UNVISITED)
        depth += 1
    return levels
