"""Community detection by synchronous label propagation (LPA).

Every vertex starts in its own community; each round it adopts the most
frequent label among its neighbours (ties broken toward the smallest label,
making the algorithm deterministic and backend-portable).  Converges when no
label changes or after ``max_iter`` rounds — the classic Raghavan et al.
algorithm, expressed with one mxm-like pass per round.

The per-round "mode over neighbour labels" is computed with GraphBLAS
building blocks: a one-hot community-membership matrix F (vertex × label),
neighbour label counts ``C = A ⊗ F`` over (PLUS, SECOND-as-1), and an
argmax per row via reduce + ewise compare.
"""

from __future__ import annotations

import numpy as np

from ..core import operations as ops
from ..core.matrix import Matrix
from ..core.monoid import MAX_MONOID
from ..core.semiring import PLUS_PAIR
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import INT64

__all__ = ["label_propagation", "modularity"]


def _one_hot(labels: np.ndarray, n: int) -> Matrix:
    """Vertex × label membership matrix with a single 1 per row."""
    return Matrix.from_lists(
        np.arange(n, dtype=np.int64),
        labels.astype(np.int64),
        np.ones(n, dtype=np.int64),
        n,
        n,
        INT64,
    )


def label_propagation(g: Matrix, max_iter: int = 100) -> Vector:
    """Community labels (dense INT64) for the undirected graph ``g``.

    Deterministic: ties go to the smallest label.  Isolated vertices keep
    their own label.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    labels = np.arange(n, dtype=np.int64)
    if n == 0:
        return Vector.sparse(INT64, 0)
    for _ in range(max_iter):
        f = _one_hot(labels, n)
        # counts[v, l] = number of v's neighbours with label l.
        counts = Matrix.sparse(INT64, n, n)
        ops.mxm(counts, g, f, PLUS_PAIR)
        if counts.nvals == 0:
            break
        # Row-wise max count.
        best = Vector.sparse(INT64, n)
        ops.reduce_to_vector(best, counts, MAX_MONOID)
        # Mark entries achieving the max, then take the smallest such label.
        cc = counts.container
        row_ids = cc.row_ids()
        best_dense = best.to_dense(0)
        winners = cc.values == best_dense[row_ids]
        new_labels = labels.copy()
        win_rows = row_ids[winners]
        win_labels = cc.indices[winners]
        # First winner per row is the smallest label (CSR order is sorted).
        first_of_row = np.flatnonzero(
            np.concatenate(([True], win_rows[1:] != win_rows[:-1]))
        )
        new_labels[win_rows[first_of_row]] = win_labels[first_of_row]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    # Canonicalise: rename each community to its smallest member id.
    canon = {}
    out = np.empty(n, dtype=np.int64)
    order = np.argsort(labels, kind="stable")  # gbsan: ok(argsort) -- label canonicalisation, once per sweep, not a kernel hot path
    for v in range(n):
        lbl = labels[v]
        if lbl not in canon:
            canon[lbl] = min(
                int(x) for x in np.flatnonzero(labels == lbl)
            )
    for v in range(n):
        out[v] = canon[labels[v]]
    return Vector.from_lists(np.arange(n, dtype=np.int64), out, n, INT64)


def modularity(g: Matrix, labels: Vector) -> float:
    """Newman modularity Q of a labelling on an undirected graph.

    ``Q = Σ_c [ e_c/m - (d_c / 2m)² ]`` with e_c intra-community edges
    (each direction counted once), d_c total degree of community c, and m
    undirected edge count.
    """
    if g.nrows != g.ncols:
        raise InvalidValueError(f"adjacency must be square, got {g.shape}")
    n = g.nrows
    two_m = g.nvals  # symmetric storage counts each edge twice
    if two_m == 0:
        return 0.0
    lab = labels.to_dense(-1).astype(np.int64)
    cc = g.container
    intra = float(np.count_nonzero(lab[cc.row_ids()] == lab[cc.indices]))  # directed count
    deg = cc.row_degrees().astype(np.float64)
    q = intra / two_m
    for c in np.unique(lab[lab >= 0]):
        d_c = float(deg[lab == c].sum())
        q -= (d_c / two_m) ** 2
    return q
