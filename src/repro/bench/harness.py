"""Measurement harness for the benchmark suite.

Two kinds of time coexist in this reproduction (see DESIGN.md):

- **wall time** — real measured Python time, meaningful for the ``reference``
  and ``cpu`` backends;
- **simulated time** — the GPU cost model's clock, meaningful for the
  ``cuda_sim`` backend (its wall time is just the simulation's overhead).

:func:`time_operation` runs a callable under a named backend and returns the
appropriate measurement for that backend, so benchmark tables can put all
three backends in the same row without mixing units dishonestly: every value
is "time for this backend to do the work", wall-clock for real backends and
modeled device time for the simulated one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from ..backends.dispatch import get_backend, use_backend
from ..gpu.device import get_device

__all__ = ["Measurement", "time_operation", "simulated_gpu_time"]


@dataclass(frozen=True)
class Measurement:
    """One timed run."""

    backend: str
    seconds: float  # wall or simulated, per backend kind
    simulated: bool
    result: Any = None
    kernel_launches: int = 0
    transfer_seconds: float = 0.0
    h2d_bytes: float = 0.0

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6


def simulated_gpu_time(fn: Callable[[], Any], include_transfers: bool = True) -> Measurement:
    """Run ``fn`` under the cuda_sim backend; report modeled device time."""
    dev = get_device()
    backend = get_backend("cuda_sim")
    # Fresh accounting for this run.
    backend.evict_all()
    dev.reset()
    with use_backend("cuda_sim"):
        result = fn()
    prof = dev.profiler
    kernel_us = prof.kernel_time_us
    transfer_us = prof.transfer_time_us
    total_us = kernel_us + (transfer_us if include_transfers else 0.0)
    return Measurement(
        backend="cuda_sim",
        seconds=total_us / 1e6,
        simulated=True,
        result=result,
        kernel_launches=prof.launch_count,
        transfer_seconds=transfer_us / 1e6,
        h2d_bytes=prof.h2d_bytes,
    )


def time_operation(
    backend: str,
    fn: Callable[[], Any],
    repeat: int = 1,
    include_transfers: bool = True,
) -> Measurement:
    """Best-of-``repeat`` timing of ``fn`` under ``backend``.

    For ``cuda_sim`` the modeled device time is returned (identical across
    repeats by construction, so one run suffices).
    """
    if backend == "cuda_sim":
        return simulated_gpu_time(fn, include_transfers)
    best = float("inf")
    result = None
    with use_backend(backend):
        for _ in range(max(repeat, 1)):
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
            best = min(best, dt)
    return Measurement(backend=backend, seconds=best, simulated=False, result=result)
