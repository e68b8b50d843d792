"""Compare two run sets of the end-to-end benchmark, metric by metric.

A run set is a directory of ``run-*.json`` files written by
``run.py --out DIR`` (one file per full run).  For every workload and
end-to-end metric this prints each set's median and quartiles, the bound,
and a verdict:

- ``agree``      — B's median is within the tolerance of A's, both ways;
- ``regressed``  — B is worse than A by more than the tolerance;
- ``improved``   — B is better than A by more than the tolerance, or every
  B run is better than every A run;
- ``unresolved`` — a set's quartile distance is wider than the tolerance,
  so the medians cannot be told apart.

The tolerance is the bound times A's median, and never less than the
metric's floor (50 ms for ``setup_s``).  The bound is ``BOUND``, except
that simulated and virtual metrics must be bit-equal (bound 0) when both
sets ran one and the same seed.  ``BENCHMARK.json`` gives the metrics it
lists the same ``BOUND``, except ``setup_s``: a share is all it can hold,
so it lists 0.25, about the floor's share of set-ups near 0.2 s.
``failed_frac`` regresses when B's worst run has more failures than A's
worst.

``--paired`` also applies the rule for claiming a gain: runs are paired in
file-name order (alternate which side runs first), and a metric counts as a
gain only with at least 10 pairs, B winning at least 9 in 10 of them (ties
count for neither), and a median gap wider than A's own quartile distance;
no gain counts on a workload where more ops fail in B than in A.

Usage::

    python benchmarks/e2e/compare.py e2e-runs/a e2e-runs/b [--paired]

Exits 1 when any pair of metric and workload is ``regressed`` or
``unresolved``, or, with ``--paired``, when no gain holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from catalog import END_TO_END, deterministic

# Host metrics, and simulated ones across seeds: there the inputs differ,
# and stream_churn's simulated cost spreads up to 3.3% over ten seeds.
BOUND = 0.10
# Absolute tolerance below which a change never counts, in the metric's unit.
FLOORS = {"setup_s": 0.05}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(d: Path) -> List[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(d.glob("run-*.json"))]
    if not runs:
        raise SystemExit(f"{d}: no run-*.json files")
    return runs


def quartiles(v: List[float]) -> Tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, in the metric's unit."""
    return (b - a) if better == "lower" else (a - b)


def verdict(name: str, a: List[float], b: List[float], bound: float) -> str:
    better = END_TO_END[name].better
    if name == "failed_frac":
        return "regressed" if max(b) > max(a) else "agree"
    qa, qb = quartiles(a), quartiles(b)
    tol = max(bound * abs(qa[1]), FLOORS.get(name, 0.0))
    if max(qa[2] - qa[0], qb[2] - qb[0]) > tol:
        all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
        return "improved" if all_better else "unresolved"
    gap = worse_by(qa[1], qb[1], better)
    if gap > tol:
        return "regressed"
    if gap < -tol:
        return "improved"
    return "agree"


def bounds_for(a: List[dict], b: List[dict]) -> Dict[str, float]:
    one_seed = len({r["seed"] for r in a + b}) == 1
    return {
        name: 0.0 if one_seed and deterministic(name) else BOUND for name in END_TO_END
    }


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric]
        for r in runs
        if metric in r["workloads"].get(workload, {}).get("metrics", {})
    ]


def paired_claim(name: str, a: List[float], b: List[float]) -> str:
    better = END_TO_END[name].better
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    q1, med_a, q3 = quartiles(a)
    gap = abs(quartiles(b)[1] - med_a)
    ok = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > q3 - q1
    return f"{'gain' if ok else 'no gain'} ({wins}/{len(pairs)} wins, gap {gap:.4g} vs IQR {q3 - q1:.4g})"


def main(argv: List[str] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", type=Path, help="run set A (the parent)")
    p.add_argument("b", type=Path, help="run set B (the change)")
    p.add_argument("--paired", action="store_true", help="apply the paired gain rule")
    args = p.parse_args(argv)
    a_runs, b_runs = load_set(args.a), load_set(args.b)
    bounds = bounds_for(a_runs, b_runs)
    workloads = sorted({w for r in a_runs + b_runs for w in r["workloads"]})
    print(f"A: {args.a} ({len(a_runs)} runs)   B: {args.b} ({len(b_runs)} runs)")
    print(f"{'workload':16} {'metric':20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'bound':>6}  verdict")
    bad = claims = 0
    for w in workloads:
        more_failures = verdict(
            "failed_frac", values(a_runs, w, "failed_frac"),
            values(b_runs, w, "failed_frac"), 0.0,
        ) == "regressed"
        for name in END_TO_END:
            a, b = values(a_runs, w, name), values(b_runs, w, name)
            if not a or not b:
                continue
            v = verdict(name, a, b, bounds[name])
            bad += v in ("regressed", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            line = (f"{w:16} {name:20} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                    f" {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {bounds[name]:6.3f}  {v}")
            if args.paired:
                # A gain does not count when more ops fail than in A.
                claim = "no gain (more failures)" if more_failures else paired_claim(name, a, b)
                claims += claim.startswith("gain")
                line += f"  | {claim}"
            print(line)
    return 1 if bad or (args.paired and not claims) else 0


if __name__ == "__main__":
    sys.exit(main())
