"""Multi-tenant graph-query serving over shared resident graphs.

The serving layer turns the library's batched primitives into an online
system: typed per-user queries (BFS distance maps, k-hop neighborhoods,
personalized PageRank, feature lookups) arrive from many tenants, a
coalescer drains compatible queries into multi-source batched launches
(one masked ``mxm`` per BFS level for a whole frontier *matrix*, one SpMM
per PPR iteration for a whole block of rank vectors), and a scheduler
overlaps batches on virtual stream lanes — on ``multi_sim`` each batch
additionally shards block-row across the device cluster.

Module map:

- :mod:`.queries` — query/result types, coalesce keys, ``Overloaded``;
- :mod:`.engine` — resident graph registry + batched execution paths;
- :mod:`.coalescer` — pools, size/age close triggers, weighted fairness;
- :mod:`.scheduler` — stream-lane placement;
- :mod:`.service` — the discrete-event service core and its stats;
- :mod:`.traffic` — seeded Zipf/Poisson synthetic workload generator;
- :mod:`.aio` — ``asyncio`` facade (awaitable submissions).

See ``docs/serving.md`` for the design narrative and the fig9 benchmark
(`benchmarks/bench_fig9_serving_qps.py`) for the batched-vs-unbatched QPS
experiment this layer exists to win.
"""

from .coalescer import BatchPolicy, Coalescer
from .engine import ExecutionEngine, GraphHandle
from .queries import (
    BfsQuery,
    FeatureQuery,
    KHopQuery,
    Overloaded,
    PprQuery,
    Query,
    QueryResult,
)
from .scheduler import BatchScheduler, StreamLane
from .service import GraphService, QueryRecord, ServiceStats, Tenant
from .traffic import Submission, TrafficSpec, generate_trace, zipf_choice

__all__ = [
    "BatchPolicy",
    "Coalescer",
    "ExecutionEngine",
    "GraphHandle",
    "Query",
    "BfsQuery",
    "KHopQuery",
    "PprQuery",
    "FeatureQuery",
    "QueryResult",
    "Overloaded",
    "BatchScheduler",
    "StreamLane",
    "GraphService",
    "QueryRecord",
    "ServiceStats",
    "Tenant",
    "Submission",
    "TrafficSpec",
    "generate_trace",
    "zipf_choice",
]
