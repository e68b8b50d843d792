"""The multi-tenant graph-query service.

:class:`GraphService` ties the serving layer together: typed queries
(:mod:`.queries`) arrive from tenants into per-key pools (:mod:`.coalescer`),
close into batched launches executed by the engine (:mod:`.engine`), and
are placed on overlapping stream lanes (:mod:`.scheduler`).  The service is
a **discrete-event simulator over the device's own cost model**: arrivals
carry virtual timestamps (microseconds), batch costs come from the
simulator's deterministic accounting, and every latency quoted downstream
is ``completion − arrival`` in that shared virtual clock — bit-stable run
to run, machine to machine.

Life of a query::

    submit(tenant, query)           admission control: outstanding depth
        │                           over max_queue ⇒ typed Overloaded
        ▼
    pool[(graph, coalesce_key)]     waits ≤ max_wait_us, closes early at
        │                           max_batch (max_batch=1 = unbatched A/B)
        ▼
    engine.execute(batch)           one multi-source launch; duplicate
        │                           sources deduplicated
        ▼
    scheduler.place(...)            least-loaded stream lane; completion
        │                           timestamps every query in the batch
        ▼
    QueryRecord                     latency, batch size, deadline outcome

The coalescer's pools hold the :class:`QueryRecord` itself, so there is
one queue of admitted queries.  Per-tenant **weights** shape batch
selection under saturation (see the coalescer's fair drain),
**max_queue** bounds each tenant's outstanding work (queue-depth
shedding), and per-query **deadlines** are accounted: expired-before-
dispatch queries are dropped (``drop_expired``) and completions after
deadline are counted as missed.

A tenant's outstanding depth is two counts kept per tenant name: *queued*
(admitted, still in a pool) and *in flight* (dispatched, completion not
yet passed by an arrival).  In-flight queries retire from one min-heap of
completion times as arrivals pass them, so admission costs O(log n)
however deep the queues are.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.matrix import Matrix
from .coalescer import BatchPolicy, Coalescer, PoolKey
from .engine import ExecutionEngine, GraphHandle
from .queries import Overloaded, Query, QueryResult
from .scheduler import BatchScheduler

__all__ = ["Tenant", "QueryRecord", "ServiceStats", "GraphService"]

DEFAULT_GRAPH = "default"


@dataclass
class Tenant:
    """One traffic source: a weight for fairness, a depth cap for shedding."""

    name: str
    weight: float = 1.0
    max_queue: int = 1024
    submitted: int = 0
    shed: int = 0


@dataclass
class QueryRecord:
    """The full accounting trail of one submitted query.

    ``qid`` is the record's index in :attr:`GraphService.records`.
    """

    qid: int
    tenant: str
    graph: str
    query: Query
    arrival_us: float
    deadline_us: Optional[float] = None
    status: str = "queued"  # queued | done | expired | shed | stale
    start_us: float = 0.0
    completion_us: float = 0.0
    batch_size: int = 0
    lane: int = -1
    result: Optional[QueryResult] = None
    digest: Optional[str] = None

    @property
    def latency_us(self) -> float:
        return self.completion_us - self.arrival_us

    @property
    def deadline_met(self) -> Optional[bool]:
        """True/False for completed queries with deadlines, else None."""
        if self.status != "done" or self.deadline_us is None:
            return None
        return self.completion_us <= self.deadline_us


class ServiceStats:
    """Aggregates over a service run's query records."""

    def __init__(
        self,
        records: List[QueryRecord],
        scheduler: BatchScheduler,
        batch_sizes: Optional[List[int]] = None,
    ) -> None:
        self.records = records
        self._sched = scheduler
        self.batch_sizes = list(batch_sizes or [])

    # -- outcome counts -------------------------------------------------

    def _by_status(self, status: str) -> List[QueryRecord]:
        return [r for r in self.records if r.status == status]

    @property
    def completed(self) -> List[QueryRecord]:
        return self._by_status("done")

    @property
    def shed_count(self) -> int:
        return len(self._by_status("shed"))

    @property
    def expired_count(self) -> int:
        return len(self._by_status("expired"))

    @property
    def stale_count(self) -> int:
        """Queries dropped because their graph mutated while they queued."""
        return len(self._by_status("stale"))

    @property
    def deadline_missed_count(self) -> int:
        return sum(1 for r in self.records if r.deadline_met is False)

    # -- latency / throughput ------------------------------------------

    def latencies_us(
        self, tenant: Optional[str] = None, kind: Optional[str] = None
    ) -> np.ndarray:
        rs = (
            r
            for r in self.completed
            if (tenant is None or r.tenant == tenant)
            and (kind is None or r.query.kind == kind)
        )
        return np.array([r.latency_us for r in rs])

    def latency_percentile(self, p: float, **filters: Any) -> float:
        lat = self.latencies_us(**filters)
        if lat.size == 0:
            return float("nan")
        return float(np.percentile(lat, p))

    @property
    def sustained_qps(self) -> float:
        """Completions per second of virtual time, first arrival to last done."""
        done = self.completed
        if not done:
            return 0.0
        t0 = min(r.arrival_us for r in done)
        t1 = max(r.completion_us for r in done)
        if t1 <= t0:
            return float("inf")
        return len(done) / ((t1 - t0) / 1e6)

    @property
    def busy_us(self) -> float:
        return self._sched.busy_us

    @property
    def makespan_us(self) -> float:
        return self._sched.makespan_us

    @property
    def batch_size_histogram(self) -> Dict[int, int]:
        """{batch size: number of batches} — the coalescing-depth record."""
        hist: Dict[int, int] = {}
        for size in self.batch_sizes:
            hist[size] = hist.get(size, 0) + 1
        return dict(sorted(hist.items()))

    def tenant_summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for t in sorted({r.tenant for r in self.records}):
            lat = self.latencies_us(tenant=t)
            out[t] = {
                "completed": float(lat.size),
                "shed": float(
                    sum(1 for r in self.records if r.tenant == t and r.status == "shed")
                ),
                "p50_us": float(np.percentile(lat, 50)) if lat.size else float("nan"),
                "p99_us": float(np.percentile(lat, 99)) if lat.size else float("nan"),
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (no per-query records)."""
        return {
            "queries": len(self.records),
            "completed": len(self.completed),
            "shed": self.shed_count,
            "expired": self.expired_count,
            "stale": self.stale_count,
            "deadline_missed": self.deadline_missed_count,
            "sustained_qps": round(self.sustained_qps, 3),
            "p50_us": round(self.latency_percentile(50), 3),
            "p99_us": round(self.latency_percentile(99), 3),
            "busy_us": round(self.busy_us, 3),
            "makespan_us": round(self.makespan_us, 3),
            "batch_size_histogram": {
                str(k): v for k, v in self.batch_size_histogram.items()
            },
        }


class GraphService:
    """Async multi-tenant serving over shared resident graphs.

    "Async" in the queueing sense: :meth:`submit` returns an accepted
    :class:`QueryRecord` immediately (or raises :class:`Overloaded`), and
    the record's result materialises when its batch executes — at the size
    trigger, at the age trigger as virtual time advances, or at
    :meth:`drain`.  The :mod:`repro.serve.aio` facade adapts this to
    ``asyncio`` for callers that want real coroutines.
    """

    def __init__(
        self,
        backend: str = "cuda_sim",
        policy: Optional[BatchPolicy] = None,
        streams: int = 2,
        store_results: bool = True,
        store_digests: bool = True,
    ) -> None:
        self.engine = ExecutionEngine(backend)
        self.coalescer = Coalescer(policy)
        self.scheduler = BatchScheduler(streams=streams)
        self.tenants: Dict[str, Tenant] = {}
        self.store_results = store_results
        self.store_digests = store_digests
        self.records: List[QueryRecord] = []
        self.setup_us = 0.0
        self._now_us = 0.0
        # Outstanding depth per tenant name (add_tenant does not reset it).
        self._queued: Counter[str] = Counter()
        self._in_flight: Counter[str] = Counter()
        self._completions: List[Tuple[float, str]] = []  # min-heap (completion, tenant)
        self.batch_sizes: List[int] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_graph(
        self, matrix: Matrix, name: str = DEFAULT_GRAPH, warm: bool = True
    ) -> GraphHandle:
        """Share ``matrix`` under ``name``; ``warm`` pre-pays upload+caches."""
        h = self.engine.register(name, matrix, warm=False)
        if warm:
            self.setup_us += self.engine.warm(h)
        return h

    def add_tenant(
        self, name: str, weight: float = 1.0, max_queue: int = 1024
    ) -> Tenant:
        if weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        t = Tenant(name, weight=weight, max_queue=max_queue)
        self.tenants[name] = t
        return t

    def _tenant(self, name: str) -> Tenant:
        t = self.tenants.get(name)
        if t is None:
            t = self.add_tenant(name)
        return t

    @property
    def now_us(self) -> float:
        return self._now_us

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------

    def _outstanding(self, tenant: str, now_us: float) -> int:
        """Queued plus in-flight queries of ``tenant`` at ``now_us``."""
        while self._completions and self._completions[0][0] <= now_us:
            _, owner = heapq.heappop(self._completions)
            self._in_flight[owner] -= 1
        return self._queued[tenant] + self._in_flight[tenant]

    def submit(
        self,
        tenant: str,
        query: Query,
        graph: str = DEFAULT_GRAPH,
        arrival_us: Optional[float] = None,
        deadline_us: Optional[float] = None,
    ) -> QueryRecord:
        """Admit one query at ``arrival_us`` (default: the current clock).

        Advances virtual time to the arrival (closing any pools whose age
        trigger fires on the way), applies admission control, then pools
        the query — dispatching immediately if it fills its batch.  Raises
        :class:`Overloaded` on queue-depth shedding; the rejected query is
        still recorded with ``status="shed"``.
        """
        t = self._tenant(tenant)
        arrival = self._now_us if arrival_us is None else float(arrival_us)
        query.validate(self.engine.graph(graph).n)
        self.advance_to(arrival)
        t.submitted += 1
        rec = QueryRecord(
            qid=len(self.records),
            tenant=tenant,
            graph=graph,
            query=query,
            arrival_us=arrival,
            deadline_us=deadline_us,
        )
        self.records.append(rec)
        depth = self._outstanding(tenant, arrival)
        if depth + 1 > t.max_queue:
            rec.status = "shed"
            t.shed += 1
            raise Overloaded(tenant, depth, t.max_queue)
        version = self.engine.graph(graph).matrix.container.version
        self._evict_stale(graph, version, arrival)
        key = self.coalescer.add(rec, version=version)
        self._queued[tenant] += 1
        if self.coalescer.full(key):
            self._dispatch(key, arrival)
        return rec

    # ------------------------------------------------------------------
    # Event pump
    # ------------------------------------------------------------------

    def advance_to(self, now_us: float) -> None:
        """Move virtual time forward, firing age triggers in order."""
        if now_us < self._now_us:
            return
        while True:
            close = self.coalescer.next_close_us()
            if close is None or close > now_us:
                break
            for key in self.coalescer.due_keys(close):
                self._dispatch(key, close)
        self._now_us = now_us

    def drain(self) -> None:
        """Dispatch every pending pool at its age-trigger time."""
        while self.dispatch_next():
            pass

    def dispatch_next(self) -> bool:
        """Dispatch the single oldest pending pool (asyncio pump unit)."""
        keys = self.coalescer.pending_keys()
        if not keys:
            return False
        close = self.coalescer.next_close_us()
        now = max(self._now_us, close if close is not None else 0.0)
        self._dispatch(keys[0], now)
        self._now_us = max(self._now_us, now)
        return True

    def _evict_stale(self, graph: str, version: int, now_us: float) -> None:
        """Drop pools whose graph mutated since their queries were admitted.

        The queued queries were validated and admitted against the old
        container; answering them from the mutated graph would silently
        serve results for a graph the caller never submitted against.
        """
        for rec in self.coalescer.evict_stale(graph, version):
            rec.status = "stale"
            rec.completion_us = now_us
            self._queued[rec.tenant] -= 1

    def mutate(self, graph: str, mutator: Any) -> None:
        """Apply ``mutator(matrix)`` to a served graph, safely.

        Pending pools for ``graph`` are flushed first — queries already
        admitted are answered against the graph they were submitted to —
        then the mutation runs (bumping the container version, which
        invalidates the engine's derived caches and marks any pool that
        somehow raced the flush as stale).
        """
        for key in [
            k for k in self.coalescer.pending_keys() if k[0] == graph
        ]:
            self._dispatch(key, self._now_us)
        mutator(self.engine.graph(graph).matrix)

    def _dispatch(self, key: PoolKey, now_us: float) -> None:
        # Defensive re-check: a pool whose graph container moved since
        # admission must not execute — drop it as stale instead.
        pver = self.coalescer.pool_version(key)
        cur = self.engine.graph(key[0]).matrix.container.version
        if pver is not None and pver != cur:
            self._evict_stale(key[0], cur, now_us)
            return
        weights = {name: t.weight for name, t in self.tenants.items()}
        # Deadline expiry: drop queries that could not possibly meet their
        # deadline (it passed before the batch even formed).
        live: List[QueryRecord] = []
        for rec in self.coalescer.drain(key, weights):
            self._queued[rec.tenant] -= 1
            if rec.deadline_us is not None and rec.deadline_us < now_us:
                rec.status = "expired"
                rec.completion_us = now_us
            else:
                live.append(rec)
        if not live:
            return
        graph, ckey = key
        results, duration_us = self.engine.execute(
            graph, ckey, [rec.query for rec in live]
        )
        start, completion, lane = self.scheduler.place(now_us, duration_us)
        self.batch_sizes.append(len(live))
        for rec, res in zip(live, results):
            rec.status = "done"
            rec.start_us = start
            rec.completion_us = completion
            rec.batch_size = len(live)
            rec.lane = lane
            if self.store_results:
                rec.result = res
            if self.store_digests:
                rec.digest = res.digest()
            heapq.heappush(self._completions, (completion, rec.tenant))
            self._in_flight[rec.tenant] += 1

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------

    def run_trace(self, submissions: Iterable[Any]) -> ServiceStats:
        """Feed a pre-generated trace (see :mod:`.traffic`) through the
        service, swallowing :class:`Overloaded` into shed accounting, then
        drain.  Returns the run's stats.
        """
        for sub in submissions:
            try:
                self.submit(
                    sub.tenant,
                    sub.query,
                    graph=sub.graph,
                    arrival_us=sub.arrival_us,
                    deadline_us=sub.deadline_us,
                )
            except Overloaded:
                pass
        self.drain()
        return self.stats()

    def stats(self) -> ServiceStats:
        return ServiceStats(self.records, self.scheduler, self.batch_sizes)
