"""Per-device scheduling for the simulated cluster.

A :class:`SimCluster` owns P simulated devices, one comm stream per
device, one single-device executor
(:class:`~repro.backends.cuda_sim.backend.CudaSimBackend` bound to that
device) per shard, and one :class:`~repro.distributed.comm.CommModel`.

The execution model is BSP-with-overlap:

- shard-local kernels run on each device's default timeline, so devices
  advance independently (compute overlaps across devices);
- a collective first *barriers* (event-sync every stream to the furthest
  device clock — the straggler defines the start), then charges its
  modeled duration to every device: communication sits on the critical
  path, compute does not serialise across devices;
- the cluster's makespan is the furthest device clock, i.e.
  max-over-devices(compute) + Σ comm — the standard multi-GPU BFS/SpMV
  cost structure (GraphBLAST, Gunrock).

Comm charges are recorded on each device profiler with ``kind="comm"``, a
class the single-device aggregates (kernel time, transfer time, launch
count, H2D bytes) ignore by construction, so per-device counters keep
meaning exactly what they mean on one device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ..gpu.device import Device, DeviceProperties, K40
from ..gpu.profiler import LaunchRecord
from ..gpu.stream import Stream
from ..sanitizer import runtime as _gbsan
from .comm import CommModel
from .topology import DGX_NVLINK, Topology

__all__ = ["OrderingEdge", "SimCluster"]


@dataclass(frozen=True)
class OrderingEdge:
    """One explicit cluster-wide synchronisation point.

    Every :meth:`SimCluster.barrier` and every collective charged through
    :meth:`SimCluster.charge_comm` appends one edge to
    :attr:`SimCluster.edges` instead of ordering devices only through
    charge-time clock side effects.  The edge is the unit gbsan's
    happens-before checker consumes (all participating device/stream
    timelines merge at an edge), and it doubles as an audit trail: the
    sequence of edges *is* the cluster's synchronisation history.
    """

    kind: str  # "barrier" or the collective primitive name
    seq: int  # position in the cluster's edge history
    time_us: float  # cluster clock when the edge takes effect
    duration_us: float = 0.0  # modeled duration (collectives only)
    nbytes: float = 0.0  # total bytes moved (collectives only)
    participants: Tuple[int, ...] = ()  # device ordinals synchronised

    def __str__(self) -> str:
        extra = f" {self.nbytes:.0f}B/{self.duration_us:.1f}us" if self.nbytes else ""
        return f"edge#{self.seq} {self.kind}@{self.time_us:.1f}us{extra}"


class SimCluster:
    """P simulated devices + streams + executors + one comm model."""

    def __init__(
        self,
        nparts: int,
        props: DeviceProperties = K40,
        topology: Topology = DGX_NVLINK,
    ) -> None:
        from ..backends.cuda_sim.backend import CudaSimBackend

        self.nparts = int(nparts)
        self.props = props
        self.topology = topology
        self.devices: List[Device] = [Device(props) for _ in range(self.nparts)]
        self.streams: List[Stream] = [Stream(dev) for dev in self.devices]
        self.executors = [CudaSimBackend(device=dev) for dev in self.devices]
        self.comm = CommModel(topology, self.nparts)
        # Explicit synchronisation history; see OrderingEdge.
        self.edges: List[OrderingEdge] = []

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def makespan_us(self) -> float:
        """The cluster finishes when its last device does."""
        return max(dev.clock_us for dev in self.devices)

    def _note_edge(self, edge: OrderingEdge) -> OrderingEdge:
        """Record one explicit ordering edge and feed it to the sanitizer."""
        self.edges.append(edge)
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_cluster_edge(edge, self.devices, self.streams)
        return edge

    def barrier(self) -> float:
        """Event-synchronise every device to the furthest clock.

        The clock/timeline movements below charge the barrier's *time*; its
        *ordering* is published as an explicit :class:`OrderingEdge` so
        consumers (gbsan's happens-before checker, diagnostics) never have
        to reverse-engineer it from charge-time side effects.
        """
        for s, d in zip(self.streams, self.devices):
            if d.clock_us > s.timeline_us:
                s.timeline_us = d.clock_us
        events = [s.record_event() for s in self.streams]
        for s in self.streams:
            for ev in events:
                s.wait_event(ev)
        t = self.streams[0].timeline_us if self.streams else 0.0
        for d in self.devices:
            if d.clock_us < t:
                d.advance(t - d.clock_us)
        self._note_edge(
            OrderingEdge(
                kind="barrier",
                seq=len(self.edges),
                time_us=t,
                participants=tuple(range(self.nparts)),
            )
        )
        return t

    def collective(self, primitive: str, nbytes: float, *price_args: Any) -> None:
        """Price one collective on :attr:`comm` and charge it.

        ``primitive`` names it once: the :class:`CommModel` method that
        prices it, and the records :meth:`charge_comm` makes.  The model
        prices ``price_args``, by default the payload ``nbytes``; the charge
        records ``nbytes`` as the bytes moved.
        """
        price = getattr(self.comm, primitive)
        self.charge_comm(primitive, price(*(price_args or (nbytes,))), nbytes)

    def charge_comm(self, primitive: str, duration_us: float, nbytes: float) -> None:
        """Charge one collective: barrier, then ``duration_us`` everywhere.

        A collective contributes two ordering edges: the entry barrier
        (recorded by :meth:`barrier`) and a completion edge recorded here —
        participants are mutually ordered again once the exchanged data has
        landed.
        """
        if self.nparts <= 1 or duration_us <= 0.0:
            return
        start = self.barrier()
        per_dev_bytes = nbytes / self.nparts
        for s, d in zip(self.streams, self.devices):
            s.enqueue(duration_us)
            d._profiler.record(
                LaunchRecord(
                    name=f"comm_{primitive}",
                    kind="comm",
                    start_us=start,
                    duration_us=duration_us,
                    bytes=per_dev_bytes,
                )
            )
        self._note_edge(
            OrderingEdge(
                kind=primitive,
                seq=len(self.edges),
                time_us=start + duration_us,
                duration_us=duration_us,
                nbytes=nbytes,
                participants=tuple(range(self.nparts)),
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Fresh clocks, profilers, allocators, residency, comm counters."""
        for ex in self.executors:
            ex.evict_all()
        for dev in self.devices:
            dev.reset()
        for s, d in zip(self.streams, self.devices):
            s.timeline_us = d.clock_us
        self.comm.stats.reset()
        self.edges.clear()

    def evict_all(self) -> None:
        for ex in self.executors:
            ex.evict_all()

    # ------------------------------------------------------------------
    # Aggregated metrics (for benchmarks)
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Cluster-wide counters: per-device sums plus comm and makespan."""
        launches = sum(d.profiler.launch_count for d in self.devices)
        h2d = sum(d.profiler.h2d_bytes for d in self.devices)
        kernel_us = max(d.profiler.kernel_time_us for d in self.devices)
        transfer_us = max(d.profiler.transfer_time_us for d in self.devices)
        return {
            "nparts": self.nparts,
            "kernel_launches": launches,
            "h2d_bytes": h2d,
            "max_kernel_time_us": round(kernel_us, 3),
            "max_transfer_time_us": round(transfer_us, 3),
            "makespan_us": round(self.makespan_us, 3),
            "comm": self.comm.stats.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SimCluster P={self.nparts} {self.props.name} "
            f"{self.topology.name} t={self.makespan_us:.1f}us>"
        )

