"""Batch coalescing: drain compatible queries into multi-source launches.

The coalescer keeps one pool per (graph, coalesce-key).  A pool closes —
i.e. its queries are drained into one batched launch — when either

- it holds ``max_batch`` queries (size trigger, fires at the arrival that
  fills it), or
- its **oldest** query has waited ``max_wait_us`` (age trigger: the wait a
  query can be taxed to help later arrivals amortise launches; the knob
  that trades p50 latency for throughput).

``max_batch=1`` *is* the unbatched A/B: every query dispatches alone on
arrival, which is also the single-source execution the bit-identity
acceptance compares against.

Draining is **fairness-aware**: when a pool holds more than one batch of
work (saturation — exactly when selection matters), slots are divided
among the tenants waiting in it by weighted largest-remainder quotas, so a
flooding tenant cannot push a light tenant's queries out of every batch.
Within a tenant, arrival order is preserved; leftover capacity goes to the
globally oldest queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from .service import QueryRecord

__all__ = ["BatchPolicy", "Coalescer"]

PoolKey = Tuple[str, Tuple[Any, ...]]  # (graph, coalesce_key)


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs: how big and how stale a batch may get."""

    max_batch: int = 32
    max_wait_us: float = 2_000.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )


@dataclass
class _Pool:
    key: PoolKey
    queries: List["QueryRecord"] = field(default_factory=list)
    # Container version of the graph the pooled queries were admitted
    # against; a mismatch at dispatch means the graph mutated mid-pool and
    # the batch must not run (the answers would be for a different graph).
    version: int = 0

    @property
    def oldest_us(self) -> float:
        return self.queries[0].arrival_us

    def close_at(self, max_wait_us: float) -> float:
        return self.oldest_us + max_wait_us


class Coalescer:
    """Per-key pending pools with size/age close triggers.

    The pools hold the service's own :class:`~repro.serve.service.QueryRecord`
    objects: the pools are the service's one queue of admitted queries.
    """

    def __init__(self, policy: Optional[BatchPolicy] = None) -> None:
        self.policy = policy or BatchPolicy()
        self._pools: Dict[PoolKey, _Pool] = {}

    def __len__(self) -> int:
        return sum(len(p.queries) for p in self._pools.values())

    def add(self, rec: "QueryRecord", version: int = 0) -> PoolKey:
        """Admit one query record; returns its pool key.

        ``version`` is the graph's container version at admission; the pool
        is stamped with the first arrival's version (callers evict stale
        pools via :meth:`evict_stale` before adding at a newer version).
        """
        key = (rec.graph, rec.query.coalesce_key())
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = _Pool(key, version=version)
        pool.queries.append(rec)
        return key

    def pool_version(self, key: PoolKey) -> Optional[int]:
        pool = self._pools.get(key)
        return None if pool is None else pool.version

    def evict_stale(self, graph: str, version: int) -> List["QueryRecord"]:
        """Remove every pool for ``graph`` stamped with a different version.

        Returns the dropped queries so the caller can account them; they
        were admitted against a graph that no longer exists and must not be
        answered from the mutated one.
        """
        dropped: List["QueryRecord"] = []
        for key in [k for k in self._pools if k[0] == graph]:
            pool = self._pools[key]
            if pool.version != version:
                dropped.extend(pool.queries)
                del self._pools[key]
        return dropped

    def full(self, key: PoolKey) -> bool:
        pool = self._pools.get(key)
        return pool is not None and len(pool.queries) >= self.policy.max_batch

    def next_close_us(self) -> Optional[float]:
        """Earliest age-trigger deadline across pools (None when empty)."""
        if not self._pools:
            return None
        return min(
            p.close_at(self.policy.max_wait_us) for p in self._pools.values()
        )

    def due_keys(self, now_us: float) -> List[PoolKey]:
        """Pools whose age trigger has fired by ``now_us``, oldest first."""
        due = [
            p
            for p in self._pools.values()
            if p.close_at(self.policy.max_wait_us) <= now_us
        ]
        due.sort(key=lambda p: (p.oldest_us, p.key))
        return [p.key for p in due]

    def pending_keys(self) -> List[PoolKey]:
        pools = sorted(self._pools.values(), key=lambda p: (p.oldest_us, p.key))
        return [p.key for p in pools]

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def drain(
        self, key: PoolKey, weights: Mapping[str, float]
    ) -> List["QueryRecord"]:
        """Remove and return up to ``max_batch`` queries from ``key``.

        When the pool overflows one batch, slots are split across waiting
        tenants by weighted largest-remainder quotas (see module doc);
        otherwise the whole pool drains in arrival order.
        """
        pool = self._pools.get(key)
        if pool is None:
            return []
        take = self.policy.max_batch
        if len(pool.queries) <= take:
            batch = pool.queries
            del self._pools[key]
            return batch
        batch = self._fair_select(pool.queries, take, weights)
        chosen = {id(q) for q in batch}
        pool.queries = [q for q in pool.queries if id(q) not in chosen]
        if not pool.queries:
            del self._pools[key]
        return batch

    @staticmethod
    def _fair_select(
        queries: List["QueryRecord"], take: int, weights: Mapping[str, float]
    ) -> List["QueryRecord"]:
        by_tenant: Dict[str, List["QueryRecord"]] = {}
        for q in queries:
            by_tenant.setdefault(q.tenant, []).append(q)
        tenants = sorted(by_tenant)
        total_w = sum(max(weights.get(t, 1.0), 0.0) for t in tenants) or 1.0
        # Integer quotas by largest remainder, capped by each queue length.
        shares = {
            t: take * max(weights.get(t, 1.0), 0.0) / total_w for t in tenants
        }
        quota = {t: min(int(shares[t]), len(by_tenant[t])) for t in tenants}
        leftover = take - sum(quota.values())
        by_remainder = sorted(
            tenants,
            key=lambda t: (-(shares[t] - int(shares[t])), by_tenant[t][0].arrival_us),
        )
        while leftover > 0:
            progressed = False
            for t in by_remainder:
                if leftover == 0:
                    break
                if quota[t] < len(by_tenant[t]):
                    quota[t] += 1
                    leftover -= 1
                    progressed = True
            if not progressed:
                break
        batch = [q for t in tenants for q in by_tenant[t][: quota[t]]]
        batch.sort(key=lambda q: (q.arrival_us, q.qid))
        return batch
