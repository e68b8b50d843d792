"""Streaming/dynamic graphs: batched edge churn with incremental recompute.

The mutable front (:class:`DynamicGraph`) keeps pending edge ops in one
normalized :class:`EdgeBatch` beside the canonical CSR; compaction folds
it back in place, charged through the active backend's cost model.
Incremental views keep BFS levels, connected components, and PageRank
current under edge batches, falling back to full recompute when a delete
(or a too-large delta) makes that the sound choice.  See
``docs/streaming.md``.
"""

from .batch import EdgeBatch, random_edge_batch
from .graph import DynamicGraph, StreamStats
from .incremental import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalPageRank,
    ViewStats,
)
from .overlay import merge_overlay

__all__ = [
    "EdgeBatch",
    "random_edge_batch",
    "DynamicGraph",
    "StreamStats",
    "merge_overlay",
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalPageRank",
    "ViewStats",
]
