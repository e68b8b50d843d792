"""Per-device scheduling for the simulated cluster.

A :class:`SimCluster` owns P simulated devices, one single-device executor
(:class:`~repro.backends.cuda_sim.backend.CudaSimBackend` bound to that
device) per shard, and one :class:`~repro.distributed.comm.CommModel`.
The cluster keeps no clock of its own: its time is its devices' clocks.

The execution model is BSP-with-overlap:

- shard-local kernels run on each device's own clock, so devices advance
  independently (compute overlaps across devices);
- a collective first *barriers* (every device advances to the furthest
  device clock — the straggler defines the start), then charges its
  modeled duration to every device: communication sits on the critical
  path, compute does not serialise across devices;
- the cluster's makespan is the furthest device clock, i.e.
  max-over-devices(compute) + Σ comm — the standard multi-GPU BFS/SpMV
  cost structure (GraphBLAST, Gunrock).

Comm charges are recorded on each device profiler with ``kind="comm"``, a
class the single-device aggregates (kernel time, transfer time, launch
count, H2D bytes) ignore by construction, so per-device counters keep
meaning exactly what they mean on one device.  Each barrier joins every
device's timeline (and the host's) in gbsan's happens-before order.
"""

from __future__ import annotations

from typing import Any, List

from ..gpu.device import Device, DeviceProperties, K40
from ..gpu.profiler import LaunchRecord
from ..sanitizer import runtime as _gbsan
from .comm import CommModel
from .topology import DGX_NVLINK, Topology

__all__ = ["SimCluster"]


class SimCluster:
    """P simulated devices + executors + one comm model."""

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
        self.executors = [CudaSimBackend(device=dev) for dev in self.devices]
        self.comm = CommModel(topology, self.nparts)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def makespan_us(self) -> float:
        """The cluster finishes when its last device does."""
        return max(dev.clock_us for dev in self.devices)

    def barrier(self) -> float:
        """Advance every device to the furthest device clock; returns it."""
        t = self.makespan_us
        for d in self.devices:
            if d.clock_us < t:
                d.advance(t - d.clock_us)
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_cluster_sync(self.devices)
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

        Every device ends at ``start + duration_us`` and records a
        ``comm_<primitive>`` record at ``start``; the participants are
        mutually ordered again once the exchanged data has landed.
        """
        if self.nparts <= 1 or duration_us <= 0.0:
            return
        start = self.barrier()
        end = start + duration_us
        per_dev_bytes = nbytes / self.nparts
        for d in self.devices:
            if d.clock_us < end:
                d.advance(end - d.clock_us)
            d._profiler.record(
                LaunchRecord(
                    name=f"comm_{primitive}",
                    kind="comm",
                    start_us=start,
                    duration_us=duration_us,
                    bytes=per_dev_bytes,
                )
            )
        san = _gbsan.ACTIVE
        if san is not None:
            san.on_cluster_sync(self.devices)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Fresh clocks, profilers, allocators, residency, comm counters."""
        for ex in self.executors:
            ex.evict_all()
        for dev in self.devices:
            dev.reset()
        self.comm.stats.reset()

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

