"""``asyncio`` facade over :class:`~repro.serve.service.GraphService`.

The core service is a discrete-event simulator on a virtual clock; this
adapter exposes it to coroutine callers.  ``await submit(...)`` resolves
with the query's :class:`~repro.serve.service.QueryRecord` once its batch
has executed — which may be immediately (size trigger), after other
submissions advance virtual time past the pool's age trigger, or when a
drain flushes the tail.  A background pump task cooperatively dispatches
one pending pool per scheduling slice, yielding control between batches so
many tenants' coroutines interleave naturally.

Admission control surfaces as the same typed
:class:`~repro.serve.queries.Overloaded` exception, raised out of the
``await``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from .queries import Query
from .service import DEFAULT_GRAPH, GraphService, QueryRecord

__all__ = ["AsyncGraphService"]


class AsyncGraphService:
    """Awaitable submission API over a (virtual-clock) GraphService."""

    def __init__(self, service: GraphService) -> None:
        self.service = service
        self._futures: Dict[int, "asyncio.Future[QueryRecord]"] = {}

    async def submit(
        self,
        tenant: str,
        query: Query,
        graph: str = DEFAULT_GRAPH,
        arrival_us: Optional[float] = None,
        deadline_us: Optional[float] = None,
    ) -> QueryRecord:
        """Admit one query and wait for its batch to complete.

        Raises :class:`~repro.serve.queries.Overloaded` synchronously when
        the tenant's queue is full.
        """
        rec = self.service.submit(
            tenant, query, graph=graph,
            arrival_us=arrival_us, deadline_us=deadline_us,
        )
        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[QueryRecord]" = loop.create_future()
        self._futures[rec.qid] = fut
        self._settle()
        if fut.done():
            return fut.result()
        # Not yet batched: pump pending pools cooperatively until it is.
        # Yield BEFORE forcing a dispatch so sibling coroutines that are
        # about to submit get to join the pool — a size-trigger fill then
        # settles everyone at once; only a pool nobody else tops up gets
        # flushed by its own waiter.
        while not fut.done():
            await asyncio.sleep(0)
            self._settle()
            if fut.done():
                break
            self.service.dispatch_next()
            self._settle()
        return fut.result()

    async def drain(self) -> None:
        """Flush every pending pool, yielding between batch dispatches."""
        while self.service.dispatch_next():
            self._settle()
            await asyncio.sleep(0)
        self._settle()

    def _settle(self) -> None:
        # A record's index in service.records is its qid.
        records = self.service.records
        for qid in [q for q in self._futures if records[q].status != "queued"]:
            fut = self._futures.pop(qid)
            if not fut.done():
                fut.set_result(records[qid])
