"""Simulated CUDA substrate.

This package stands in for the GPU hardware the paper evaluated on (see
DESIGN.md "Hardware substitution"): a device model with allocator, SIMT
divergence/coalescing estimators, an analytic roofline cost model, kernel
launch machinery, and a profiler.  Each device runs its launches and
transfers in program order on one timeline.  Kernel *semantics* run
for real on the host; only *time* is modeled.
"""

from .costmodel import CostModel, KernelWork
from .device import (
    Device,
    DeviceProperties,
    K40,
    P100,
    V100,
    get_device,
    reset_device,
    set_device,
)
from .kernel import Kernel, LaunchConfig, charge_transfer, launch
from .memory import DeviceAllocator, DeviceBuffer, MemoryStats
from .profiler import LaunchRecord, Profiler
from .simt import COALESCING, divergence_thread_per_row, divergence_warp_per_row

__all__ = [
    "CostModel",
    "KernelWork",
    "Device",
    "DeviceProperties",
    "K40",
    "P100",
    "V100",
    "get_device",
    "reset_device",
    "set_device",
    "Kernel",
    "LaunchConfig",
    "charge_transfer",
    "launch",
    "DeviceAllocator",
    "DeviceBuffer",
    "MemoryStats",
    "LaunchRecord",
    "Profiler",
    "COALESCING",
    "divergence_thread_per_row",
    "divergence_warp_per_row",
]
