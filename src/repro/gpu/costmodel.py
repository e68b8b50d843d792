"""Analytic GPU cost model.

Kernel time is modeled with the standard roofline-plus-overheads form::

    t = launch_overhead
      + max( flops / (effective_compute_rate),
             bytes  / (effective_bandwidth) )

with three first-order corrections that dominate real sparse-kernel
behaviour on GPUs and that the Table 3 ablation sweeps:

- **occupancy** — a grid too small to fill the machine scales compute rate
  by ``resident_threads / (cores)`` (bounded by 1);
- **divergence** — intra-warp branch divergence divides compute throughput
  (1 = uniform, warp_size = fully serialised lanes);
- **coalescing** — scattered global-memory access divides effective
  bandwidth (1 = fully coalesced, up to 32 for per-lane random access).

Host↔device transfers are charged ``pcie_latency + bytes / pcie_bandwidth``.
The model intentionally ignores caches, shared-memory bank conflicts, and
ILP; a GABB'16-scale evaluation only needs first-order ordering and
crossover behaviour, which these three terms reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .device import DeviceProperties

__all__ = ["CostModel", "KernelWork"]


@dataclass(frozen=True)
class KernelWork:
    """Work description a kernel reports at launch time."""

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    threads: int = 1
    divergence: float = 1.0  # >= 1; divides compute throughput
    coalescing: float = 1.0  # >= 1; divides memory bandwidth
    # Load-balancing lane the estimator priced, when it is not the kernel's
    # native one (see repro.gpu.loadbalance); the launch records the kernel
    # as "name[lane]".
    lane: Optional[str] = None

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


class CostModel:
    """Maps :class:`KernelWork` to simulated microseconds."""

    def __init__(self, props: "DeviceProperties"):
        self.props = props
        # Ablation switches (Table 3): disabling a term sets its factor to 1.
        self.enable_divergence = True
        self.enable_coalescing = True
        self.enable_occupancy = True

    # ------------------------------------------------------------------

    def occupancy(self, threads: int) -> float:
        """Fraction of peak compute the grid can engage (0, 1]."""
        if not self.enable_occupancy:
            return 1.0
        total = self.props.total_cores
        return min(1.0, max(threads, 1) / total)

    def kernel_time_us(self, work: KernelWork) -> float:
        """Simulated duration of one kernel launch.

        Divergence scales the whole busy time, not just ALU time: lanes that
        serialise (thread-per-row skew) or idle (warp-per-row short rows)
        stall both instruction issue and LD/ST issue, so effective compute
        *and* memory throughput drop together — which is why CSR kernel
        choice matters on GPUs at all.
        """
        p = self.props
        div = work.divergence if self.enable_divergence else 1.0
        coal = work.coalescing if self.enable_coalescing else 1.0
        compute_rate = p.peak_gflops * self.occupancy(work.threads)
        # GFLOP/s == FLOP/ns; convert to FLOP/us.
        compute_us = work.flops / max(compute_rate * 1e3, 1e-12)
        bandwidth = p.mem_bandwidth_gbps / max(coal, 1.0)
        # GB/s == byte/ns; convert to byte/us.
        memory_us = work.bytes_total / max(bandwidth * 1e3, 1e-12)
        return p.launch_overhead_us + max(compute_us, memory_us) * max(div, 1.0)

    def transfer_time_us(self, nbytes: float) -> float:
        """Simulated duration of one H2D or D2H copy."""
        p = self.props
        return p.pcie_latency_us + nbytes / max(p.pcie_bandwidth_gbps * 1e3, 1e-12)
