"""Kernel-launch profiler for the simulated device.

Records one :class:`LaunchRecord` per kernel launch and per transfer; the
benchmark harness reads the aggregate to report simulated GPU times (the
host wall-clock of the simulation itself is meaningless for the GPU series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["LaunchRecord", "Profiler"]


@dataclass(frozen=True)
class LaunchRecord:
    """One simulated event: a kernel launch, a PCIe transfer, or a collective.

    An aggregated ``graph_replay[...]`` record carries its member kernels in
    ``members`` as ``(name, busy_us, flops, bytes)`` tuples so per-kernel
    attribution survives replay aggregation (see :meth:`Profiler.by_kernel`).
    """

    name: str
    kind: str  # "kernel" | "h2d" | "d2h" | "comm"
    start_us: float
    duration_us: float
    flops: float = 0.0
    bytes: float = 0.0
    threads: int = 0
    members: Tuple[Tuple[str, float, float, float], ...] = field(default=())

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class Profiler:
    """Accumulates launch records and provides aggregates."""

    def __init__(self) -> None:
        self.records: List[LaunchRecord] = []

    def record(self, rec: LaunchRecord) -> None:
        self.records.append(rec)

    def reset(self) -> None:
        self.records.clear()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_time_us(self) -> float:
        return sum(r.duration_us for r in self.records)

    @property
    def kernel_time_us(self) -> float:
        return sum(r.duration_us for r in self.records if r.kind == "kernel")

    @property
    def transfer_time_us(self) -> float:
        return sum(r.duration_us for r in self.records if r.kind in ("h2d", "d2h"))

    @property
    def launch_count(self) -> int:
        return sum(1 for r in self.records if r.kind == "kernel")

    @property
    def h2d_bytes(self) -> float:
        """Bytes actually copied host→device (elided uploads excluded)."""
        return sum(r.bytes for r in self.records if r.kind == "h2d")

    @property
    def replay_count(self) -> int:
        """Aggregated graph-replay launches (see repro.gpu.graph)."""
        return sum(
            1
            for r in self.records
            if r.kind == "kernel" and r.name.startswith("graph_replay[")
        )

    def by_kernel(self, expand_replays: bool = False) -> Dict[str, Dict[str, float]]:
        """Per-kernel-name aggregate: count, total time, flops, bytes.

        With ``expand_replays=True``, aggregated ``graph_replay[...]``
        records are attributed back to their member kernels (one count and
        its busy time each); the single launch overhead the replay actually
        paid stays on the ``graph_replay[...]`` row, so column sums still
        equal :attr:`kernel_time_us`.
        """
        out: Dict[str, Dict[str, float]] = {}

        def bump(
            name: str, count: float, time_us: float, flops: float, nbytes: float
        ) -> None:
            agg = out.setdefault(
                name, {"count": 0, "time_us": 0.0, "flops": 0.0, "bytes": 0.0}
            )
            agg["count"] += count
            agg["time_us"] += time_us
            agg["flops"] += flops
            agg["bytes"] += nbytes

        for r in self.records:
            if r.kind != "kernel":
                continue
            if expand_replays and r.members:
                busy_total = 0.0
                for name, busy, flops, nbytes in r.members:
                    bump(name, 1, busy, flops, nbytes)
                    busy_total += busy
                bump(r.name, 1, r.duration_us - busy_total, 0.0, 0.0)
            else:
                bump(r.name, 1, r.duration_us, r.flops, r.bytes)
        return out

    def summary(self, expand_replays: bool = False) -> str:
        """Human-readable per-kernel table (for examples/EXPERIMENTS)."""
        lines = [f"{'kernel':<28}{'count':>7}{'time_us':>12}{'GB':>9}"]
        for name, agg in sorted(self.by_kernel(expand_replays).items()):
            lines.append(
                f"{name:<28}{int(agg['count']):>7}{agg['time_us']:>12.1f}"
                f"{agg['bytes'] / 1e9:>9.3f}"
            )
        lines.append(
            f"{'transfers':<28}{'':>7}{self.transfer_time_us:>12.1f}"
        )
        return "\n".join(lines)
