#!/usr/bin/env python
"""Gate deterministic benchmark counters against committed baselines.

The cuda_sim backend's kernel-launch counts, H2D byte totals and simulated
kernel time come from the cost model, not the host clock, so they are
bit-stable across machines.  This script compares the ``cuda_sim_metrics``
blocks of freshly generated ``BENCH_<fig>.json`` records against the
committed baselines and fails when a counter grew by more than the
tolerance (default 10%) — catching regressions like a lost
transfer-elision path or a kernel sequence that stopped fusing, without any
wall-clock noise.  Simulated time (``kernel_us``) is a deterministic clock,
so it has no tolerance: any rise fails until the baseline is regenerated.

Usage::

    python benchmarks/check_bench_regressions.py \
        --baseline-dir <dir with committed BENCH_*.json> \
        --current-dir  benchmarks/results \
        fig1 fig2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TRACKED_KEYS = ("kernel_launches", "h2d_bytes", "kernel_us")
#: Gated with zero tolerance: the simulated clock moves only when the model
#: or the schedule it prices changes, never with noise.
EXACT_KEYS = ("kernel_us",)


def _flatten(metrics: dict, prefix: str = "") -> dict:
    """{case: {counter: value}} -> {"case.counter": value}."""
    flat = {}
    for case, counters in sorted(metrics.items()):
        for key in TRACKED_KEYS:
            if key in counters:
                flat[f"{prefix}{case}.{key}"] = float(counters[key])
    return flat


def compare(baseline: dict, current: dict, tolerance: float) -> list:
    """Regression messages for counters that grew beyond tolerance.

    A baseline that tracks no counters is itself a failure: the figure is
    named in a gate but nothing about it would ever be compared.
    """
    problems = []
    base = _flatten(baseline.get("cuda_sim_metrics", {}))
    cur = _flatten(current.get("cuda_sim_metrics", {}))
    if not base:
        problems.append(f"baseline tracks no counters ({', '.join(TRACKED_KEYS)})")
    for name, old in sorted(base.items()):
        if name not in cur:
            problems.append(f"{name}: missing from current run (baseline {old:g})")
            continue
        new = cur[name]
        if old == 0:
            if new > 0:
                problems.append(f"{name}: {old:g} -> {new:g} (was zero)")
            continue
        limit = 0.0 if name.rsplit(".", 1)[1] in EXACT_KEYS else tolerance
        growth = (new - old) / old
        if growth > limit:
            problems.append(
                f"{name}: {old:g} -> {new:g} (+{growth * 100:.4g}% > "
                f"{limit * 100:.0f}% tolerance)"
            )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("figures", nargs="+", help="figure names, e.g. fig1 fig2")
    ap.add_argument("--baseline-dir", required=True, type=Path)
    ap.add_argument("--current-dir", required=True, type=Path)
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args(argv)

    failures = []
    for fig in args.figures:
        base_path = args.baseline_dir / f"BENCH_{fig}.json"
        cur_path = args.current_dir / f"BENCH_{fig}.json"
        if not base_path.exists():
            # A figure added in the current change has no committed baseline
            # yet.  Seed one from the current run so the very next run is
            # gated — a brand-new figure should never stay ungated for more
            # than one pass.
            if cur_path.exists():
                base_path.parent.mkdir(parents=True, exist_ok=True)
                base_path.write_text(cur_path.read_text())
                print(
                    f"[bench-gate] {fig}: baseline seeded from {cur_path}",
                    file=sys.stderr,
                )
            else:
                print(
                    f"[bench-gate] {fig}: no baseline at {base_path} and no "
                    f"current record at {cur_path}; skipping",
                    file=sys.stderr,
                )
            continue
        if not cur_path.exists():
            failures.append(f"{fig}: current record {cur_path} not found")
            continue
        baseline = json.loads(base_path.read_text())
        current = json.loads(cur_path.read_text())
        problems = compare(baseline, current, args.tolerance)
        if problems:
            failures.extend(f"{fig}: {p}" for p in problems)
        else:
            n = len(_flatten(baseline.get("cuda_sim_metrics", {})))
            print(f"[bench-gate] {fig}: {n} counters within tolerance")

    if failures:
        print("[bench-gate] REGRESSIONS DETECTED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
