"""Connected components via min-label propagation.

Every vertex starts labelled with its own id; each round it adopts the
minimum label among itself and its neighbours (``mxv`` over (MIN, SECOND)).
Converges in O(diameter) rounds — the simple, backend-portable formulation
(FastSV's hooking tricks trade portability for rounds; see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..core import operations as ops
from ..core.matrix import Matrix
from ..core.operators import MIN
from ..core.semiring import MIN_SECOND
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import INT64

__all__ = ["connected_components", "component_count"]


def connected_components(g: Matrix, max_iter: int = 0) -> Vector:
    """Component labels (dense INT64): ``labels[v]`` = min vertex id in v's
    component.  ``g`` must be symmetric for the result to mean undirected
    components; on a directed graph this computes a fixpoint of min-label
    propagation along edges in both orientations of iteration order.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    labels = Vector.from_lists(
        np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), n, INT64
    )
    limit = max_iter if max_iter > 0 else max(n, 1)
    for _ in range(limit):
        # Min neighbour label: t[i] = min_j A[i,j]·labels[j] under (MIN, SECOND).
        t = Vector.sparse(INT64, n)
        ops.mxv(t, g, labels, MIN_SECOND)
        new_labels = Vector.sparse(INT64, n)
        ops.ewise_add(new_labels, labels, t, MIN)
        if new_labels == labels:
            break
        labels = new_labels
    return labels


def component_count(g: Matrix) -> int:
    """Number of connected components."""
    labels = connected_components(g)
    return int(np.unique(labels.values_array()).size) if labels.nvals else 0
