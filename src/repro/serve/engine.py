"""Batched query execution over shared resident graphs.

The engine owns the *device side* of serving: it holds registered graphs
(which stay resident across every query — the reuse layer elides repeat
uploads), per-graph derived caches (the PPR transition matrix, the vertex
feature store), and the batched kernel paths that turn a set of coalesced
queries into a handful of launches:

- traversals (BFS / k-hop) become one
  :func:`~repro.algorithms.msbfs.bfs_levels_multi` call — k frontiers as a
  Boolean matrix, one masked ``mxm`` per level, hop-bounded when every
  query in the batch is hop-bounded;
- PPR becomes one :func:`~repro.algorithms.ppr.ppr_batch` call — k rank
  vectors as a matrix, one SpMM per iteration over the cached transition;
- feature lookups read the materialised per-vertex feature store (built on
  first touch, one masked SpGEMM, then free).

Duplicate sources inside a batch are deduplicated — Zipf traffic makes hot
sources *common*, so k queries frequently cost far fewer than k rows — and
every per-query result is sliced from the batch output on the host, which
is exactly the row a batch-of-one run would produce (see the bit-identity
notes in :mod:`repro.algorithms.ppr`).

Batch cost is the backend's own :meth:`~repro.backends.base.Backend.busy_us`
(kernel + transfer time on ``cuda_sim``, cluster makespan on ``multi_sim``),
so latency and QPS numbers downstream are deterministic, not wall-clock
noise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.msbfs import bfs_levels_multi
from ..algorithms.ppr import ppr_batch, ppr_transition
from ..algorithms.triangles import triangles_per_vertex
from ..backends.dispatch import get_backend, use_backend
from ..core.matrix import Matrix
from ..exceptions import InvalidValueError
from .queries import KHopQuery, Query, QueryResult

__all__ = ["GraphHandle", "ExecutionEngine"]


class GraphHandle:
    """One registered, shared, resident graph plus its derived caches.

    Caches are stamped with the container version so a mutated graph
    invalidates them the same way the reuse layer invalidates device
    residency.
    """

    def __init__(self, name: str, matrix: Matrix) -> None:
        self.name = name
        self.matrix = matrix
        self._transition: Optional[Tuple[int, Any]] = None
        self._features: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def transition(self) -> Any:
        """(M, d) for PPR, rebuilt only when the graph version moves."""
        v = self.matrix.container.version
        if self._transition is None or self._transition[0] != v:
            self._transition = (v, ppr_transition(self.matrix))
        return self._transition[1]

    def features(self) -> Tuple[np.ndarray, np.ndarray]:
        """(out_degrees, triangles) dense arrays — the feature store."""
        v = self.matrix.container.version
        if self._features is None or self._features[0] != v:
            deg = self.matrix.container.row_degrees().astype(np.float64)
            tri_v = triangles_per_vertex(self.matrix)
            tri = np.zeros(self.n)
            tri[tri_v.indices_array()] = tri_v.values_array()
            self._features = (v, deg, tri)
        return self._features[1], self._features[2]


class ExecutionEngine:
    """Runs coalesced batches on one backend and meters their device cost."""

    def __init__(self, backend: str = "cuda_sim") -> None:
        self._be = get_backend(backend)
        self._graphs: Dict[str, GraphHandle] = {}

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------

    def register(self, name: str, matrix: Matrix, warm: bool = False) -> GraphHandle:
        if matrix.nrows != matrix.ncols:
            raise InvalidValueError(
                f"served graphs must be square adjacencies, got {matrix.shape}"
            )
        h = GraphHandle(name, matrix)
        self._graphs[name] = h
        if warm:
            self.warm(h)
        return h

    def graph(self, name: str) -> GraphHandle:
        try:
            return self._graphs[name]
        except KeyError:
            raise KeyError(
                f"unknown graph {name!r}; registered: {sorted(self._graphs)}"
            ) from None

    def warm(self, h: GraphHandle) -> float:
        """Upload the graph and build every derived cache now.

        Returns the device time spent — setup cost the caller can report
        separately instead of taxing the first unlucky query batch.
        """
        t0 = self._be.busy_us()
        with use_backend(self._be):
            # A 0-hop traversal touches (and uploads) the adjacency.
            bfs_levels_multi(h.matrix, [0], max_level=0)
            h.transition()
            h.features()
        return self._be.busy_us() - t0

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def execute(
        self, graph: str, key: Tuple[Any, ...], queries: Sequence[Query]
    ) -> Tuple[List[QueryResult], float]:
        """Run one coalesced batch; returns (per-query results, device µs).

        ``queries`` must all share ``key`` (the coalescer guarantees it).
        Results are positionally parallel to ``queries``.
        """
        h = self.graph(graph)
        t0 = self._be.busy_us()
        with use_backend(self._be):
            if key[0] == "traverse":
                results = self._run_traverse(h, queries)
            elif key[0] == "ppr":
                results = self._run_ppr(h, queries, key[1], key[2])
            elif key[0] == "feature":
                results = self._run_feature(h, queries)
            else:  # pragma: no cover - defensive
                raise InvalidValueError(f"unknown batch key {key!r}")
        return results, self._be.busy_us() - t0

    def _run_traverse(
        self, h: GraphHandle, queries: Sequence[Query]
    ) -> List[QueryResult]:
        # Hop bound: the deepest query decides; any full BFS ⇒ fixpoint.
        max_level: Optional[int] = 0
        for q in queries:
            if isinstance(q, KHopQuery):
                if max_level is not None:
                    max_level = max(max_level, q.hops)
            else:
                max_level = None
        uniq = sorted({q.source for q in queries})
        row_of = {s: i for i, s in enumerate(uniq)}
        levels = bfs_levels_multi(h.matrix, uniq, max_level=max_level)
        csr = levels.container
        out: List[QueryResult] = []
        for q in queries:
            idx, vals = csr.row(row_of[q.source])
            if isinstance(q, KHopQuery):
                keep = vals <= q.hops
                out.append(QueryResult("khop", idx[keep].copy(), vals[keep].copy()))
            else:
                out.append(QueryResult("bfs", idx.copy(), vals.copy()))
        return out

    def _run_ppr(
        self, h: GraphHandle, queries: Sequence[Query], damping: float, iters: int
    ) -> List[QueryResult]:
        uniq = sorted({q.source for q in queries})
        row_of = {s: i for i, s in enumerate(uniq)}
        ranks = ppr_batch(
            h.matrix, uniq, damping=damping, iters=iters,
            transition=h.transition(),
        )
        csr = ranks.container
        out: List[QueryResult] = []
        for q in queries:
            idx, vals = csr.row(row_of[q.source])
            out.append(QueryResult("ppr", idx.copy(), vals.copy()))
        return out

    def _run_feature(
        self, h: GraphHandle, queries: Sequence[Query]
    ) -> List[QueryResult]:
        deg, tri = h.features()
        out: List[QueryResult] = []
        for q in queries:
            s = q.source
            out.append(
                QueryResult(
                    "feature",
                    np.array([s], dtype=np.int64),
                    np.array([deg[s], tri[s]]),
                )
            )
        return out
