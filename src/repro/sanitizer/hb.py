"""Happens-before machinery: timelines, vector clocks, epochs.

Every execution timeline of the simulated stack — each device's default
(serialising) queue and every explicit :class:`~repro.gpu.stream.Stream` —
gets a :class:`Timeline` carrying a vector clock.  Ordering edges come from:

* program order within one timeline (the clock increments per operation),
* stream creation (a new stream observes everything already on its
  device's default timeline),
* ``record_event`` / ``wait_event`` pairs (the waiter joins the recorded
  snapshot),
* ``stream.synchronize()`` (the device default timeline joins the stream),
* cluster barriers and collectives (every device timeline of the cluster
  and the host join a common frontier — see
  :meth:`repro.distributed.cluster.SimCluster.barrier`).

Two accesses conflict iff they touch the same buffer, at least one writes,
and neither happens-before the other — the standard vector-clock race
condition (FastTrack keeps a last-write epoch plus a read map per buffer;
:mod:`repro.sanitizer.runtime` does the same).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Tuple

__all__ = ["Epoch", "Timeline", "join", "merge_frontier"]

#: ``(timeline id, clock value)`` — one access's position in the HB order.
Epoch = Tuple[int, int]

_TIDS = itertools.count(1)


class Timeline:
    """One execution timeline with its vector clock."""

    __slots__ = ("tid", "name", "clock", "vc")

    def __init__(self, name: str) -> None:
        self.tid: int = next(_TIDS)
        self.name = name
        self.clock: int = 0
        # Vector clock: tid -> highest clock value of that timeline known
        # to have happened before this timeline's current point.
        self.vc: Dict[int, int] = {self.tid: 0}

    def tick(self) -> Epoch:
        """Advance program order by one operation; returns the new epoch."""
        self.clock += 1
        self.vc[self.tid] = self.clock
        return (self.tid, self.clock)

    def ordered_after(self, epoch: Epoch) -> bool:
        """True when ``epoch`` happens-before this timeline's current point."""
        tid, clock = epoch
        return self.vc.get(tid, 0) >= clock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeline {self.name} tid={self.tid} clock={self.clock}>"


def join(target: Timeline, snapshot: Dict[int, int]) -> None:
    """Merge a vector-clock snapshot into ``target`` (pointwise max)."""
    vc = target.vc
    for tid, clock in snapshot.items():
        if clock > vc.get(tid, 0):
            vc[tid] = clock


def merge_frontier(timelines: Iterable[Timeline]) -> Dict[int, int]:
    """Pointwise max over all clocks — the common frontier of a barrier.

    After a barrier every participant adopts (a copy of) the merged
    frontier, making all pre-barrier work on any participant ordered
    before all post-barrier work on every participant.
    """
    frontier: Dict[int, int] = {}
    for t in timelines:
        for tid, clock in t.vc.items():
            if clock > frontier.get(tid, 0):
                frontier[tid] = clock
    return frontier
