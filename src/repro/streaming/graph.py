"""Mutable graph front: batched edge churn over a static CSR.

:class:`DynamicGraph` wraps a frontend :class:`~repro.core.matrix.Matrix`
and accepts :class:`~repro.streaming.batch.EdgeBatch` mutations.  Pending
ops live in one normalized ``EdgeBatch`` (last op per edge wins, sorted):
point reads (:meth:`DynamicGraph.has_edge` / :meth:`edge_value`) look the
edge up there before the base CSR, so applying a batch is O(batch) and
never rewrites the CSR.

**Compaction** folds the pending delta into the base CSR in place
(:meth:`~repro.containers.csr.CSRMatrix.install_arrays` preserves the
container's identity and bumps its version, so aux caches (multi_sim's
partitions among them), residency entries and lazy-tape fingerprints all
invalidate through the version stamp).  Aᵀ is the exception: when the
backend holds it, the same merge folds the transposed delta into it and
the result becomes the new version's memo.  The active backend performs
and charges the merge through its
:meth:`~repro.backends.base.Backend.compact` hook: host backends install
for free, the simulated devices charge a delta upload plus merge kernels.
Compaction runs eagerly once the pending delta holds at least
``COMPACT_MIN_OPS`` ops and more than ``COMPACT_FRACTION`` of the base
entries, and implicitly whenever :attr:`DynamicGraph.matrix` is read —
GraphBLAS kernels always see a fully materialised CSR.

**Views** (the incremental algorithms in :mod:`repro.streaming.incremental`)
attach via :meth:`DynamicGraph.attach`; they are notified *before* each
batch lands so they can probe pre-batch state (is this delete effective?)
and decide between frontier seeding and full recompute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import current_backend
from ..containers.csr import CSRMatrix
from ..core.matrix import Matrix
from ..exceptions import InvalidValueError
from .batch import EdgeBatch
from .overlay import merge_overlay

__all__ = ["COMPACT_FRACTION", "COMPACT_MIN_OPS", "StreamStats", "DynamicGraph"]

# Auto-compaction folds the pending delta in once it holds at least
# COMPACT_MIN_OPS ops and more than COMPACT_FRACTION of the base entries;
# the floor keeps tiny graphs from compacting on every batch.
COMPACT_FRACTION = 0.25
COMPACT_MIN_OPS = 64


@dataclass
class StreamStats:
    """Mutation-side counters (views keep their own recompute stats)."""

    batches: int = 0
    inserts: int = 0
    deletes: int = 0
    compactions: int = 0
    auto_compactions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class DynamicGraph:
    """A square adjacency matrix under batched edge churn."""

    def __init__(self, matrix: Matrix) -> None:
        if matrix.nrows != matrix.ncols:
            raise InvalidValueError(
                f"dynamic graph must be square, got {matrix.shape}"
            )
        self._matrix = matrix
        self._delta = EdgeBatch()  # normalized pending ops
        self._views: List[Any] = []
        #: Monotonic mutation sequence number; bumped once per applied batch
        #: (compaction does NOT bump it — the logical graph is unchanged).
        self.seq = 0
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    # Introspection (reads merge base + pending delta)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._matrix.nrows

    @property
    def nrows(self) -> int:
        return self._matrix.nrows

    @property
    def ncols(self) -> int:
        return self._matrix.ncols

    @property
    def pending_ops(self) -> int:
        """Number of normalized pending delta ops (0 when compacted)."""
        return len(self._delta)

    @property
    def base_nvals(self) -> int:
        return self._matrix.container.nvals

    def nvals(self) -> int:
        """Edge count of the *logical* graph (base ⊕ delta)."""
        if len(self._delta) == 0:
            return self.base_nvals
        rows, _cols = self.edges()
        return int(rows.size)

    def has_edge(self, i: int, j: int) -> bool:
        pend = self._delta.lookup(i, j)
        if pend is not None:
            return pend[0]
        return self._matrix.container.get(i, j) is not None

    def edge_value(self, i: int, j: int) -> Optional[float]:
        """Logical stored value at ``(i, j)``, or None if absent."""
        pend = self._delta.lookup(i, j)
        if pend is not None:
            return pend[1] if pend[0] else None
        v = self._matrix.container.get(i, j)
        return None if v is None else float(v)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the logical graph, without compacting.

        The mutation fuzzer samples delete targets from this; it is a host
        merge, so it neither charges device work nor bumps the version.
        """
        m = self._merged() if len(self._delta) else self._matrix.container
        return m.row_ids(), m.indices.copy()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def attach(self, view: Any) -> Any:
        """Register an incremental view; returns it for chaining."""
        if view not in self._views:
            self._views.append(view)
        return view

    def detach(self, view: Any) -> None:
        if view in self._views:
            self._views.remove(view)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, batch: EdgeBatch) -> "DynamicGraph":
        """Apply one edge batch atomically.

        Views are notified with the normalized batch *before* it joins the
        pending delta, so they can probe pre-batch state through
        :meth:`has_edge` / :meth:`edge_value`.
        """
        batch.validate(self.nrows, self.ncols)
        nb = batch.normalized()
        if len(nb) == 0:
            return self
        for view in self._views:
            view.on_batch(self, nb)
        self._delta = self._delta.then(nb)
        self.seq += 1
        self.stats.batches += 1
        self.stats.inserts += nb.insert_count
        self.stats.deletes += nb.delete_count
        pending = len(self._delta)
        if pending >= COMPACT_MIN_OPS and pending > COMPACT_FRACTION * self.base_nvals:
            self.stats.auto_compactions += 1
            self.compact()
        return self

    def insert_edges(self, rows: Any, cols: Any, vals: Any) -> "DynamicGraph":
        return self.apply(EdgeBatch.inserts(rows, cols, vals))

    def delete_edges(self, rows: Any, cols: Any) -> "DynamicGraph":
        return self.apply(EdgeBatch.deletes(rows, cols))

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> bool:
        """Fold the pending delta into the base CSR; True if work was done.

        The active backend merges and charges the fold (see the module
        docstring); the container keeps its identity and gets a new
        version, which is what invalidates every downstream cache.
        """
        if len(self._delta) == 0:
            return False
        m = self._matrix
        m._settle()  # recorded lazy ops may still read the old arrays
        current_backend().compact(m.container, self._delta)
        self._delta = EdgeBatch()
        self.stats.compactions += 1
        return True

    # ------------------------------------------------------------------
    # Materialised access
    # ------------------------------------------------------------------

    @property
    def matrix(self) -> Matrix:
        """The materialised graph (compacts pending delta on demand)."""
        self.compact()
        return self._matrix

    def snapshot(self) -> Matrix:
        """An independent materialised copy (full-recompute oracle input).

        Host-side merge into a fresh container — no device charge, no
        version bump, no compaction of the live graph.
        """
        return Matrix(self._merged())

    def _merged(self) -> CSRMatrix:
        """``base ⊕ delta`` merged on the host into a fresh container."""
        base = self._matrix.container
        return CSRMatrix(
            base.nrows, base.ncols, *merge_overlay(base, self._delta), base.type
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n}, base_nvals={self.base_nvals}, "
            f"pending={self.pending_ops}, seq={self.seq})"
        )
