"""Placing batches on overlapping execution lanes (streams).

The simulated device executes kernels one at a time in wall clock, but its
*modeled* timelines overlap exactly like CUDA streams
(:mod:`repro.gpu.stream`: "work launched on different streams overlaps").
The scheduler exploits that: each batch's device cost is metered once by
the engine, then *placed* on the least-loaded of ``streams`` virtual lanes
— start = max(ready, lane free), completion = start + duration — so
concurrent batches overlap the way stream-dispatched launches would, and
per-query completion times (hence p50/p99 latency and sustained QPS) fall
out deterministically.

On ``multi_sim`` a single batch already spans every device (the
partitioned backend shards each batched launch block-row across the
cluster); lanes then model concurrent *batches* pipelined behind each
other, i.e. stream-level overlap on top of data-parallel sharding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["StreamLane", "BatchScheduler"]


@dataclass
class StreamLane:
    """One virtual stream: a monotone timeline of placed batches."""

    index: int
    free_at_us: float = 0.0
    busy_us: float = 0.0
    batches: int = 0


@dataclass
class BatchScheduler:
    """Least-loaded placement of metered batches onto ``streams`` lanes."""

    streams: int = 2
    lanes: List[StreamLane] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if not self.lanes:
            self.lanes = [StreamLane(i) for i in range(self.streams)]

    def place(self, ready_us: float, duration_us: float) -> Tuple[float, float, int]:
        """Schedule one batch; returns (start, completion, lane index)."""
        lane = min(self.lanes, key=lambda l: (l.free_at_us, l.index))
        start = max(ready_us, lane.free_at_us)
        completion = start + duration_us
        lane.free_at_us = completion
        lane.busy_us += duration_us
        lane.batches += 1
        return start, completion, lane.index

    @property
    def busy_us(self) -> float:
        """Total device time placed (sum over lanes)."""
        return sum(l.busy_us for l in self.lanes)

    @property
    def makespan_us(self) -> float:
        """Latest completion across lanes."""
        return max((l.free_at_us for l in self.lanes), default=0.0)

    def reset(self) -> None:
        self.lanes = [StreamLane(i) for i in range(self.streams)]
