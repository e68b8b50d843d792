"""Inter-device communication primitives and their byte accounting.

The collectives follow the standard ring/tree cost models (the same
algebra NCCL's performance model uses):

- ``allgather`` / ``reduce_scatter`` — ring with P−1 steps, each moving a
  1/P chunk of the payload over the slowest link on the ring; wire traffic
  is ``(P−1)·bytes`` (every device receives everyone else's share).
- ``broadcast`` — binomial tree, ``ceil(log2 P)`` full-payload steps.
- ``all_to_all`` — P−1 exchange rounds of 1/P chunks.
- ``frontier_exchange`` — the sparse primitive: every device sends the
  partial-result entries it produced for rows another device owns.  Cost
  is latency per peer plus the *maximum* per-device send serialised over
  its link, reflecting that exchanges are bottlenecked by the busiest
  device, not the sum.
- ``allreduce`` — latency-bound ring on one scalar (convergence
  checks).

Every primitive returns its modeled duration and records wire bytes into a
:class:`CommStats` — the inter-device analogue of
:class:`~repro.gpu.memory.MemoryStats`.  All primitives are free at P=1.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from .topology import Topology

__all__ = ["CommStats", "CommModel"]

_PRIMITIVES = (
    "allgather",
    "reduce_scatter",
    "broadcast",
    "all_to_all",
    "frontier_exchange",
    "allreduce",
)


class CommStats:
    """Counters for inter-device traffic, by primitive."""

    __slots__ = ("counts", "bytes", "time_us")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.counts: Dict[str, int] = {p: 0 for p in _PRIMITIVES}
        self.bytes: Dict[str, float] = {p: 0.0 for p in _PRIMITIVES}
        self.time_us = 0.0

    def record(self, primitive: str, nbytes: float, duration_us: float) -> None:
        self.counts[primitive] += 1
        self.bytes[primitive] += float(nbytes)
        self.time_us += float(duration_us)

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes.values())

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return {
            "total_bytes": self.total_bytes,
            "time_us": round(self.time_us, 3),
            "counts": dict(self.counts),
            "bytes": {k: round(v) for k, v in self.bytes.items()},
        }


class CommModel:
    """Prices collectives for a fixed (topology, P) pair and keeps stats.

    Methods return the modeled duration in µs; the caller (the cluster
    scheduler) charges it to the device timelines.  At ``P == 1`` every
    primitive costs nothing and records nothing — a one-device cluster has
    no wires.
    """

    def __init__(self, topology: Topology, nparts: int) -> None:
        self.topology = topology
        self.nparts = int(nparts)
        self.stats = CommStats()

    # ------------------------------------------------------------------

    def _ring_step_us(self, chunk_bytes: float) -> float:
        """One ring step: every device forwards a chunk to its successor;
        the step finishes when the slowest neighbour link does."""
        p = self.nparts
        return max(
            self.topology.transfer_time_us(chunk_bytes, i, (i + 1) % p)
            for i in range(p)
        )

    def _charge(self, primitive: str, wire_bytes: float, dt_us: float) -> float:
        self.stats.record(primitive, wire_bytes, dt_us)
        return dt_us

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def allgather(self, total_bytes: float) -> float:
        """Each device ends with the full payload, starting from its 1/P."""
        p = self.nparts
        if p <= 1 or total_bytes <= 0:
            return 0.0
        chunk = total_bytes / p
        dt = (p - 1) * self._ring_step_us(chunk)
        # Each of the P devices receives the other P−1 chunks.
        return self._charge("allgather", (p - 1) * total_bytes, dt)

    def reduce_scatter(self, total_bytes: float) -> float:
        """Each device ends with the reduced 1/P it owns."""
        p = self.nparts
        if p <= 1 or total_bytes <= 0:
            return 0.0
        chunk = total_bytes / p
        dt = (p - 1) * self._ring_step_us(chunk)
        return self._charge("reduce_scatter", (p - 1) * total_bytes, dt)

    def broadcast(self, nbytes: float, nreceivers: int | None = None) -> float:
        """Root replicates a payload to every (or ``nreceivers``) peer."""
        p = self.nparts
        n = p - 1 if nreceivers is None else int(nreceivers)
        if p <= 1 or n <= 0 or nbytes <= 0:
            return 0.0
        worst = self.topology.worst_link(p)
        steps = max(1, math.ceil(math.log2(n + 1)))
        dt = steps * worst.transfer_time_us(nbytes)
        return self._charge("broadcast", n * nbytes, dt)

    def all_to_all(self, total_bytes: float) -> float:
        """Every device redistributes its 1/P share across all peers."""
        p = self.nparts
        if p <= 1 or total_bytes <= 0:
            return 0.0
        chunk = total_bytes / p
        dt = (p - 1) * self._ring_step_us(chunk)
        # A fraction (P−1)/P of the payload changes devices.
        return self._charge("all_to_all", (p - 1) * total_bytes / p, dt)

    def frontier_exchange(self, send_bytes: Sequence[float]) -> float:
        """Sparse exchange: device p sends ``send_bytes[p]`` to peers.

        The duration is the busiest device's serialized send (latency per
        active peer round plus its bytes over the worst link); wire bytes
        are the true total — sparse frontiers are what make multi-GPU BFS
        communication cheap when the frontier is small.
        """
        p = self.nparts
        total = float(sum(send_bytes))
        if p <= 1:
            return 0.0
        worst = self.topology.worst_link(p)
        busiest = max(send_bytes) if len(send_bytes) else 0.0
        dt = worst.latency_us * (p - 1) + (
            busiest * 1e-3 / worst.bandwidth_gbps if busiest > 0 else 0.0
        )
        return self._charge("frontier_exchange", total, dt)

    def allreduce(self, item_bytes: int = 8) -> float:
        """Reduce one scalar to all devices (latency-bound ring)."""
        p = self.nparts
        if p <= 1:
            return 0.0
        worst = self.topology.worst_link(p)
        dt = 2.0 * (p - 1) * worst.latency_us
        return self._charge("allreduce", 2.0 * (p - 1) * item_bytes, dt)
