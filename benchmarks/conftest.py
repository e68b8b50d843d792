"""Shared helpers for the benchmark suite.

Conventions (see DESIGN.md, per-experiment index):

- every benchmark test uses the ``benchmark`` fixture so the whole suite
  runs under ``pytest benchmarks/ --benchmark-only``;
- backends measure differently: ``reference``/``cpu`` report wall time,
  ``cuda_sim`` reports the cost model's simulated device time, which is
  attached to ``benchmark.extra_info["simulated_us"]`` (its wall time is
  simulation overhead, not a claim about GPU speed);
- each table/figure test renders the paper-style table with
  :mod:`repro.bench.tables` and writes it to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.backends.dispatch import get_backend, use_backend
from repro.bench.harness import simulated_gpu_time, time_operation
from repro.gpu.device import get_device, reset_device

RESULTS_DIR = Path(__file__).parent / "results"


def fresh_device_state() -> None:
    """Evict backend residency, *then* reset the device.

    Order matters: eviction frees each buffer into the allocator that
    issued it.  Resetting first would hand out a fresh allocator while the
    backend still considers the previous case's containers resident — later
    cases would silently skip uploads, so the allocator and profiler
    counters would disagree about transfer traffic between cases.
    """
    get_backend("cuda_sim").evict_all()
    reset_device()


def measure(backend: str, fn, repeat: int = 3):
    """One Measurement for ``fn`` under ``backend`` (see bench.harness)."""
    return time_operation(backend, fn, repeat=repeat)


def sim_metrics(fn) -> dict:
    """Deterministic cuda_sim counters for one case.

    Charged kernel launches, H2D traffic and simulated kernel time come
    from the cost model, not the host clock, so they are bit-stable across
    machines — CI diffs them against committed baselines with a hard
    tolerance, and ``kernel_us`` with none (see
    ``check_bench_regressions.py``).
    """
    m = simulated_gpu_time(fn)
    out = {
        "kernel_launches": m.kernel_launches,
        "h2d_bytes": round(m.h2d_bytes),
        "kernel_us": round(get_device().profiler.kernel_time_us, 3),
    }
    # Serving runs return ServiceStats: record the coalescing-depth
    # histogram alongside the device counters so fig9 can attribute
    # latency to batch depth (keys stringified for stable JSON).
    hist = getattr(m.result, "batch_size_histogram", None)
    if hist is not None:
        out["batch_size_histogram"] = {
            str(k): int(v) for k, v in sorted(hist.items())
        }
    return out


def bench_backend(benchmark, backend: str, fn, rounds: int = 3):
    """Drive pytest-benchmark for one (backend, op) cell.

    For real backends the benchmark statistic is the wall time.  For the
    simulated GPU the statistic is the simulation's wall time; the modeled
    device time is attached as extra_info.
    """
    if backend == "cuda_sim":
        m = simulated_gpu_time(fn)
        benchmark.extra_info["simulated_us"] = round(m.microseconds, 3)
        benchmark.extra_info["kernel_launches"] = m.kernel_launches
        benchmark.extra_info["h2d_bytes"] = round(m.h2d_bytes)

        def run():
            fresh_device_state()
            with use_backend("cuda_sim"):
                return fn()

        benchmark.pedantic(run, rounds=max(1, rounds), iterations=1)
        return m.seconds

    def run():
        with use_backend(backend):
            return fn()

    benchmark.pedantic(run, rounds=max(1, rounds), iterations=1)
    return None


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}.txt"
    out.write_text(text + "\n")
    print()
    print(text)


def save_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark record.

    Written as ``benchmarks/results/BENCH_<name>.json`` so CI (and the
    driver's acceptance checks) can diff figures without scraping the
    rendered ASCII tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {out}")
    return out


@pytest.fixture(autouse=True)
def _quiet_device():
    """Each benchmark starts from a clean simulated device."""
    fresh_device_state()
    yield
