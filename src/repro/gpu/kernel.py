"""Kernel abstraction and launch machinery for the simulated device.

A :class:`Kernel` bundles a semantic function (NumPy code that computes the
result on the host — the simulation's "device code") with a work estimator
that inspects the actual arguments and reports a
:class:`~repro.gpu.costmodel.KernelWork`.  :func:`launch` validates the
launch configuration against the device limits, executes the semantics,
charges the modeled time to the device clock, and records a profiler entry —
the full life cycle of a ``kernel<<<grid, block>>>(...)`` call.

Kernels additionally declare their **access sets** (``accesses``): a callable
receiving the launch arguments verbatim and returning an
:class:`~repro.sanitizer.access.Access` naming the containers the kernel
reads and writes.  The declarations are free when the sanitizer is off and
drive gbsan's race/residency/lifetime checkers when it is on (see
:mod:`repro.sanitizer`).  Call sites whose operands travel through thunks or
raw arrays pass ``san_reads``/``san_writes`` to :func:`launch` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple

from ..exceptions import InvalidLaunchError
from ..sanitizer import runtime as _gbsan
from ..sanitizer.access import Access
from .costmodel import KernelWork
from .device import Device, get_device
from .profiler import LaunchRecord

__all__ = ["LaunchConfig", "Kernel", "launch", "charge_transfer"]

_EMPTY_ACCESS = Access()


@dataclass(frozen=True)
class LaunchConfig:
    """``<<<grid, block>>>`` pair."""

    grid: int
    block: int

    def validate(self, device: Device) -> None:
        p = device.props
        if self.block < 1 or self.block > p.max_threads_per_block:
            raise InvalidLaunchError(
                f"block size {self.block} outside [1, {p.max_threads_per_block}]"
            )
        if self.grid < 1 or self.grid > p.max_blocks_per_grid:
            raise InvalidLaunchError(
                f"grid size {self.grid} outside [1, {p.max_blocks_per_grid}]"
            )

    @property
    def threads(self) -> int:
        return self.grid * self.block

    @classmethod
    def cover(cls, threads: int, block: int = 256) -> "LaunchConfig":
        """Smallest grid of ``block``-sized blocks covering ``threads``."""
        return cls(max(1, -(-max(1, int(threads)) // block)), block)


@dataclass(frozen=True)
class Kernel:
    """A named device kernel.

    ``run`` computes the semantics; ``work`` estimates the hardware work;
    ``accesses`` declares the read/write container sets for the sanitizer.
    All three receive the launch args verbatim.

    A row-scheduled kernel's ``work`` also decides its load-balancing lane
    (see :mod:`repro.gpu.loadbalance`) and reports a non-native one in
    :attr:`KernelWork.lane`; the launch labels its record ``name[lane]``.
    Loop-capture signatures are structural, so a lane flip between
    iterations re-costs the launch without forcing a recapture.
    """

    name: str
    run: Callable[..., Any]
    work: Callable[..., KernelWork]
    accesses: Optional[Callable[..., Access]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name})"


def launch(
    kernel: Kernel,
    config: LaunchConfig,
    *args: Any,
    device: Optional[Device] = None,
    stream: Any = None,
    san_reads: Tuple[Any, ...] = (),
    san_writes: Tuple[Any, ...] = (),
    **kwargs: Any,
) -> Any:
    """Execute a kernel on the simulated device and charge its time.

    Returns whatever the kernel's semantic function returns.  When a stream
    is given the launch is enqueued on that stream's timeline; otherwise it
    runs on the device's default (serialising) timeline.

    ``san_reads``/``san_writes`` extend the kernel's declared access sets at
    the call site (for operands that reach the kernel as raw arrays or
    thunks); they are ignored unless the sanitizer is enabled.
    """
    dev = device or get_device()
    config.validate(dev)
    work = kernel.work(*args, **kwargs)
    if work.threads <= 1:
        work = replace(work, threads=config.threads)
    name = kernel.name if work.lane is None else f"{kernel.name}[{work.lane}]"
    graph = dev.active_graph if stream is None else None
    # Inside a lazy flush: a capture charges normally; a replay charges the
    # busy time now and defers the record to the aggregate's commit (one
    # launch overhead for the whole loop).  Semantics always execute — the
    # data changes every iteration.  The aggregate decides first, so the
    # sanitizer checks bindings against a replay that really happens.
    deferred = graph is not None and graph.on_launch(name, work, dev)
    san = _gbsan.ACTIVE
    if san is not None:
        declared = (
            kernel.accesses(*args, **kwargs)
            if kernel.accesses is not None
            else _EMPTY_ACCESS
        )
        access = declared.merged(tuple(san_reads), tuple(san_writes))
        san.on_launch(kernel.name, access, dev, stream)
    if deferred:
        return kernel.run(*args, **kwargs)
    dt = dev.cost_model.kernel_time_us(work)
    if stream is not None:
        start = stream.enqueue(dt)
    else:
        start = dev.clock_us
        dev.advance(dt)
    dev._profiler.record(
        LaunchRecord(
            name=name,
            kind="kernel",
            start_us=start,
            duration_us=dt,
            flops=work.flops,
            bytes=work.bytes_total,
            threads=work.threads,
        )
    )
    return kernel.run(*args, **kwargs)


def charge_transfer(
    nbytes: float,
    kind: str,
    device: Optional[Device] = None,
    container: Any = None,
) -> float:
    """Charge one H2D/D2H transfer to the device clock; returns duration.

    ``container`` (when the transfer moves a tracked container rather than
    loose bytes) feeds the sanitizer's happens-before and residency
    checkers; it does not affect accounting.
    """
    dev = device or get_device()
    dt = dev.cost_model.transfer_time_us(nbytes)
    start = dev.clock_us
    dev.advance(dt)
    dev._profiler.record(
        LaunchRecord(name=f"memcpy_{kind}", kind=kind, start_us=start, duration_us=dt, bytes=nbytes)
    )
    san = _gbsan.ACTIVE
    if san is not None and container is not None:
        san.on_transfer(container, kind, dev)
    return dt
