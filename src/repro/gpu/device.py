"""Simulated GPU device model.

The device properties default to a Tesla-K40-class part — the kind of GPU a
2016 GABB paper evaluated on: 15 SMs × 192 cores at ~745 MHz, 288 GB/s GDDR5,
12 GB of device memory, PCIe gen3 host link, and a few microseconds of
kernel-launch overhead.  All numbers are knobs: the cost-model ablation
(Table 3) sweeps them.

A :class:`Device` owns an allocator, a cost model, a profiler, and a
simulated clock; kernels advance the clock by their modeled duration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .costmodel import CostModel
from .memory import DeviceAllocator
from .profiler import Profiler

__all__ = [
    "DeviceProperties",
    "Device",
    "get_device",
    "reset_device",
    "K40",
    "P100",
    "V100",
    "set_device",
    "set_observe_hook",
]

# Observation hook installed by repro.lazy (None when lazy is not imported).
# Reading ``Device.profiler`` is an *observation point*: pending lazy work
# must be forced and open loop-capture aggregates closed before the counters
# are meaningful.  The hook receives "observe" (profiler read) or "reset"
# (device reset — pending accounting is discarded with the profiler) and
# the device concerned.
_OBSERVE_HOOK: Optional[Callable[[str, "Device"], None]] = None

# Device serials (Device.serial), unique for the life of the process.
_SERIALS = itertools.count()


def set_observe_hook(hook: Callable[[str, "Device"], None]) -> None:
    """Install the lazy-evaluation observation hook (see repro.lazy)."""
    global _OBSERVE_HOOK
    _OBSERVE_HOOK = hook


@dataclass(frozen=True)
class DeviceProperties:
    """Static hardware characteristics of the simulated part."""

    name: str = "SimK40"
    num_sms: int = 15
    cores_per_sm: int = 192
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_blocks_per_grid: int = 2**31 - 1
    clock_ghz: float = 0.745
    mem_bandwidth_gbps: float = 288.0
    global_mem_bytes: int = 12 * 1024**3
    pcie_bandwidth_gbps: float = 10.0
    pcie_latency_us: float = 10.0
    launch_overhead_us: float = 5.0
    ipc: float = 1.0  # fused multiply-add counted as one instruction

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def peak_gflops(self) -> float:
        return self.total_cores * self.clock_ghz * self.ipc

    def with_(self, **kwargs) -> "DeviceProperties":
        """Derive a variant (ablation knob)."""
        return replace(self, **kwargs)


K40 = DeviceProperties()

# Later generations, for cross-device what-if studies (Table 5).  Numbers are
# the public spec-sheet values; the model only uses cores/clock/bandwidth/
# PCIe/launch figures.
P100 = DeviceProperties(
    name="SimP100",
    num_sms=56,
    cores_per_sm=64,
    clock_ghz=1.19,
    mem_bandwidth_gbps=732.0,
    global_mem_bytes=16 * 1024**3,
    pcie_bandwidth_gbps=12.0,
    launch_overhead_us=4.0,
)
V100 = DeviceProperties(
    name="SimV100",
    num_sms=80,
    cores_per_sm=64,
    clock_ghz=1.53,
    mem_bandwidth_gbps=900.0,
    global_mem_bytes=32 * 1024**3,
    pcie_bandwidth_gbps=14.0,
    launch_overhead_us=3.5,
)


class Device:
    """A simulated GPU: properties + allocator + clock + profiler."""

    def __init__(self, props: DeviceProperties = K40):
        self.props = props
        self.allocator = DeviceAllocator(props.global_mem_bytes)
        self.cost_model = CostModel(props)
        self._profiler = Profiler()
        self.clock_us = 0.0
        # Loop-capture aggregate of the lazy flush now executing (see
        # repro.lazy.capture); None outside flushes.
        self.active_graph = None
        # Times a container that already held a buffer here was bound to a
        # new one (re-upload after a host write, or after eviction).  A
        # captured loop replays only while this is unchanged: its launches
        # would otherwise dereference the old buffers.
        self.rebinds = 0
        # Process-unique identity for the stamps containers carry about it
        # (ResidentSet.mark's bound stamp, iso upload hints); unlike
        # id(self), never reused by a later device, and renewed by reset().
        self.serial = next(_SERIALS)

    @property
    def profiler(self):
        """The device profiler; reading it is an observation point.

        Under lazy evaluation (repro.lazy) the counters are only complete
        once the pending op tape is forced and open loop-capture aggregates
        are committed; the hook does both (and is reentrancy-guarded, so
        launches recorded *during* the forced flush go straight through).
        """
        if _OBSERVE_HOOK is not None:
            _OBSERVE_HOOK("observe", self)
        return self._profiler

    def advance(self, dt_us: float) -> float:
        """Advance the simulated clock; returns the new time."""
        if dt_us < 0:
            raise ValueError(f"negative time step {dt_us}")
        self.clock_us += dt_us
        return self.clock_us

    def reset(self) -> None:
        """Clear clock, profiler, and allocations (between benchmark runs)."""
        from ..sanitizer import runtime as _gbsan

        if _OBSERVE_HOOK is not None:
            # Discard pending lazy accounting alongside the profiler it
            # would have landed in (a reset abandons the measurement).
            _OBSERVE_HOOK("reset", self)
        san = _gbsan.ACTIVE
        if san is not None:
            # Leak report: buffers still allocated that no resident set
            # references would never be freed by a real driver at this point.
            san.on_device_reset(self)
        self.allocator.reset()
        self._profiler.reset()
        self.clock_us = 0.0
        self.active_graph = None
        # A reset device holds no buffers, so a container bound in the
        # previous session is bound here afresh, not rebound.  Without a new
        # serial its first upload would count a rebind and make the loop
        # capture that contains it re-capture.
        self.serial = next(_SERIALS)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Device {self.props.name}: {self.props.total_cores} cores, "
            f"{self.props.mem_bandwidth_gbps} GB/s, t={self.clock_us:.1f}us>"
        )


_CURRENT: Optional[Device] = None


def get_device() -> Device:
    """The process-wide simulated device (created on first use)."""
    global _CURRENT
    if _CURRENT is None:
        _CURRENT = Device()
    return _CURRENT


def set_device(device: Device) -> Device:
    """Install a specific device (e.g. with ablated properties)."""
    global _CURRENT
    _CURRENT = device
    return device


def reset_device(props: Optional[DeviceProperties] = None) -> Device:
    """Replace the device with a fresh one (optionally new properties)."""
    return set_device(Device(props or K40))
