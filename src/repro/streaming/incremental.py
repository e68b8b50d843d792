"""Incrementally-maintained analytics over a :class:`DynamicGraph`.

Each view caches its last result keyed on the graph's mutation sequence
number, and every query runs one refresh rule (``_View._refresh``):

- **cached** — graph unchanged since the last query: zero launches;
- **full recompute** — no state yet, or the view is dirty: an *effective*
  delete could invalidate the cached state (a potential BFS tree edge, any
  present edge for CC), the pending delta outgrew
  ``max(FALLBACK_MIN_OPS, FALLBACK_FRACTION × edges)``, or the caller
  called :meth:`~_View.invalidate`;
- **incremental** — otherwise: seed a frontier at the affected vertices
  and re-run the propagation loop from there (BFS/CC), or warm-restart the
  power iteration from the previous ranks (PageRank).

Soundness of the incremental paths (inserts only):

- *BFS*: old levels are valid upper bounds in the new graph (every old
  path survives).  Any vertex whose true level drops lies downstream of an
  inserted edge ``(u, v)`` with ``lv[v] > lv[u] + 1``; seeding those and
  relaxing ``(MIN, FIRST)`` waves to a fixpoint yields exactly the new
  levels — integers, so bit-identical to a fresh BFS.
- *CC*: old min-labels are upper bounds; an inserted edge ``(u, v)`` with
  ``labels[v] < labels[u]`` is the only immediately-violated constraint,
  and min-label relaxation from the changed vertices converges to the
  unique fixpoint a full run reaches.
- *PageRank*: the power iteration converges to the same fixpoint from any
  start; warm-restarting from the pre-batch ranks needs only the
  iterations the perturbation displaced.  Results agree with a cold run to
  the convergence tolerance (not bit-identical — both are ``tol``-accurate
  approximations of the same fixpoint).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.bfs import bfs_levels
from ..algorithms.components import connected_components
from ..algorithms.pagerank import pagerank
from ..core import operations as ops
from ..core.semiring import MIN_FIRST, MIN_SECOND
from ..core.vector import Vector
from ..exceptions import IndexOutOfBoundsError
from ..types import INT64
from .batch import EdgeBatch
from .graph import DynamicGraph

__all__ = [
    "FALLBACK_FRACTION",
    "FALLBACK_MIN_OPS",
    "ViewStats",
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalPageRank",
]

# A view recomputes cold once the delta pending since its last query holds
# more than max(FALLBACK_MIN_OPS, FALLBACK_FRACTION × edges) ops; the floor
# keeps small fuzz graphs on the incremental path, the code to exercise.
FALLBACK_FRACTION = 0.05
FALLBACK_MIN_OPS = 32


@dataclass
class ViewStats:
    """How each query was answered (the bench gate reads these)."""

    full_recomputes: int = 0
    incremental_updates: int = 0
    cached_hits: int = 0
    delete_fallbacks: int = 0
    size_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def _dense(v: Vector, n: int) -> np.ndarray:
    """``v`` as a dense INT64 array, -1 where absent."""
    out = np.full(n, -1, dtype=np.int64)
    out[v.indices_array()] = v.values_array()
    return out


class _View:
    """Observer plumbing and the one refresh rule every view's query runs.

    A subclass supplies ``_full()`` (recompute its state cold) and
    ``_incremental()`` (fold the inserted edges in ``_pending`` into it),
    and says which effective deletes its state cannot survive.  A view
    starts dirty: with no state, its first query is a full recompute.
    """

    def __init__(self, graph: DynamicGraph) -> None:
        self.graph = graph
        self.stats = ViewStats()
        self._pending: List[Tuple[int, int]] = []  # inserted edges to seed
        self._pending_ops = 0  # all delta ops (size heuristic input)
        self._dirty = True
        self._seq = -1
        graph.attach(self)

    def invalidate(self) -> None:
        """Force the next query to recompute from scratch."""
        self._dirty = True
        self._pending.clear()
        self._pending_ops = 0

    def _refresh(self) -> None:
        if not self._dirty and self._seq == self.graph.seq:
            self.stats.cached_hits += 1
            return
        if self._dirty:
            self._full()
            self.stats.full_recomputes += 1
        else:
            self._incremental()
            self.stats.incremental_updates += 1
        self._pending.clear()
        self._pending_ops = 0
        self._dirty = False
        self._seq = self.graph.seq

    def _full(self) -> None:
        raise NotImplementedError

    def _incremental(self) -> None:
        raise NotImplementedError

    def _delete_invalidates(self, u: int, v: int) -> bool:
        """Can deleting the present edge ``(u, v)`` invalidate the state?"""
        raise NotImplementedError

    def on_batch(self, g: DynamicGraph, batch: EdgeBatch) -> None:
        """Observer hook — runs *before* the batch joins the pending delta."""
        if self._dirty:
            return
        self._pending_ops += len(batch)
        rows, cols, ins = batch.rows, batch.cols, batch.is_insert
        for k in range(len(batch)):
            u, v = int(rows[k]), int(cols[k])
            if ins[k]:
                self._pending.append((u, v))
            elif g.has_edge(u, v) and self._delete_invalidates(u, v):
                self.invalidate()
                self.stats.delete_fallbacks += 1
                return
        edges = g.base_nvals + g.pending_ops
        if self._pending_ops > max(FALLBACK_MIN_OPS, FALLBACK_FRACTION * edges):
            self.invalidate()
            self.stats.size_fallbacks += 1


class IncrementalBFS(_View):
    """BFS levels from a fixed source, maintained under edge batches."""

    def __init__(self, graph: DynamicGraph, source: int) -> None:
        if not 0 <= source < graph.n:
            raise IndexOutOfBoundsError(f"source {source} outside [0, {graph.n})")
        self.source = source
        self._lv: Optional[np.ndarray] = None  # dense; -1 = unreachable
        super().__init__(graph)

    def _delete_invalidates(self, u: int, v: int) -> bool:
        # Deleting (u, v) can only raise a level if it lay on some shortest
        # path, i.e. lv[v] == lv[u] + 1.  Everything else is irrelevant.
        lv = self._lv
        assert lv is not None
        return lv[u] >= 0 and lv[v] == lv[u] + 1

    def query(self) -> Vector:
        """Current BFS levels (sparse INT64; unreachable = absent)."""
        self._refresh()
        lv = self._lv
        assert lv is not None
        idx = np.nonzero(lv >= 0)[0].astype(np.int64)
        return Vector.from_lists(idx, lv[idx], self.graph.n, INT64)

    def _full(self) -> None:
        self._lv = _dense(bfs_levels(self.graph.matrix, self.source), self.graph.n)

    def _incremental(self) -> None:
        g = self.graph
        m = g.matrix  # compacts: propagation runs on the materialised CSR
        lv = self._lv
        assert lv is not None
        seeds: List[int] = []
        for u, v in self._pending:
            if lv[u] >= 0 and (lv[v] < 0 or lv[v] > lv[u] + 1):
                lv[v] = lv[u] + 1
                seeds.append(v)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        n = g.n
        while frontier.size:
            # Wave: candidate levels for out-neighbours of changed vertices.
            f = Vector.from_lists(frontier, lv[frontier] + 1, n, INT64)
            t = Vector.sparse(INT64, n)
            ops.vxm(t, f, m, MIN_FIRST)
            ti, tv = t.indices_array(), t.values_array()
            if ti.size == 0:
                break
            better = (lv[ti] < 0) | (tv < lv[ti])
            frontier = ti[better]
            lv[frontier] = tv[better]


class IncrementalCC(_View):
    """Min-label connected components maintained under edge batches."""

    def __init__(self, graph: DynamicGraph) -> None:
        self._labels: Optional[np.ndarray] = None  # dense min-labels
        super().__init__(graph)

    def _delete_invalidates(self, u: int, v: int) -> bool:
        # Any effective delete can split a component (labels only rise);
        # min-propagation cannot undo a too-small label, so recompute.
        return True

    def query(self) -> Vector:
        """Current component labels (dense INT64 fixpoint)."""
        self._refresh()
        lb = self._labels
        assert lb is not None
        idx = np.arange(self.graph.n, dtype=np.int64)
        return Vector.from_lists(idx, lb.copy(), self.graph.n, INT64)

    def _full(self) -> None:
        self._labels = _dense(connected_components(self.graph.matrix), self.graph.n)

    def _incremental(self) -> None:
        g = self.graph
        m = g.matrix
        lb = self._labels
        assert lb is not None
        seeds: List[int] = []
        for u, v in self._pending:
            # New edge u→v: u may now adopt v's (smaller) label.
            if lb[v] < lb[u]:
                lb[u] = lb[v]
                seeds.append(u)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        n = g.n
        while frontier.size:
            f = Vector.from_lists(frontier, lb[frontier], n, INT64)
            t = Vector.sparse(INT64, n)
            # t[i] = min label among i's out-neighbours that just changed.
            ops.mxv(t, m, f, MIN_SECOND)
            ti, tv = t.indices_array(), t.values_array()
            if ti.size == 0:
                break
            better = tv < lb[ti]
            frontier = ti[better]
            lb[frontier] = tv[better]


class IncrementalPageRank(_View):
    """PageRank maintained by warm-restarting the power iteration.

    Unlike BFS/CC the cached state survives deletes — the iteration
    converges from any start — so only the size heuristic forces a cold
    restart.  Incremental results match a cold run to the convergence
    tolerance, not bit-for-bit.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        damping: float = 0.85,
        tol: float = 1e-8,
        max_iter: int = 100,
    ) -> None:
        self.damping = damping
        self.tol = tol
        self.max_iter = max_iter
        self._r: Optional[Vector] = None
        super().__init__(graph)

    def _delete_invalidates(self, u: int, v: int) -> bool:
        return False  # warm restart absorbs deletes

    def query(self) -> Vector:
        """Current ranks (dense FP64; treat as read-only)."""
        self._refresh()
        assert self._r is not None
        return self._r

    def _full(self) -> None:
        self._r = pagerank(self.graph.matrix, self.damping, self.tol, self.max_iter)

    def _incremental(self) -> None:
        self._r = pagerank(
            self.graph.matrix, self.damping, self.tol, self.max_iter,
            warm_start=self._r,
        )
