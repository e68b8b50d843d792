"""The CI bench gate (benchmarks/check_bench_regressions.py) fails loudly.

A named figure must fail the gate when its baseline tracks no counters,
when a tracked counter grew past the tolerance, when its simulated kernel
time or makespan rose at all, and when the current run left no record to
compare.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_regressions.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regressions", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(**cells):
    return {"cuda_sim_metrics": cells}


def _run(gate, tmp_path, baseline, current, fig="figx"):
    base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
    base_dir.mkdir()
    cur_dir.mkdir()
    (base_dir / f"BENCH_{fig}.json").write_text(json.dumps(baseline))
    if current is not None:
        (cur_dir / f"BENCH_{fig}.json").write_text(json.dumps(current))
    return gate.main(["--baseline-dir", str(base_dir), "--current-dir", str(cur_dir), fig])


def test_within_tolerance_passes(gate, tmp_path):
    cell = {"kernel_launches": 100, "h2d_bytes": 1000}
    grown = {"kernel_launches": 105, "h2d_bytes": 1000}
    assert _run(gate, tmp_path, _record(a=cell), _record(a=grown)) == 0


def test_zero_counter_figure_fails(gate, tmp_path):
    # A table4-style record: rows, but no cuda_sim_metrics to gate.
    rec = {"rows": [{"mteps": 1.0}]}
    assert _run(gate, tmp_path, rec, rec) == 1
    assert gate.compare(rec, rec, 0.10) != []


def test_growth_past_tolerance_fails(gate, tmp_path):
    cell = {"kernel_launches": 100, "h2d_bytes": 1000}
    grown = {"kernel_launches": 111, "h2d_bytes": 1000}
    assert _run(gate, tmp_path, _record(a=cell), _record(a=grown)) == 1


def test_missing_current_record_fails(gate, tmp_path):
    cell = {"kernel_launches": 100, "h2d_bytes": 1000}
    assert _run(gate, tmp_path, _record(a=cell), None) == 1


def test_any_kernel_us_rise_fails(gate, tmp_path):
    # The simulated clock is gated exactly, not at the counters' 10%.
    cell = {"kernel_launches": 100, "h2d_bytes": 1000, "kernel_us": 250.0}
    risen = dict(cell, kernel_us=250.001)
    assert _run(gate, tmp_path, _record(a=cell), _record(a=risen)) == 1


def test_kernel_us_fall_passes(gate, tmp_path):
    cell = {"kernel_launches": 100, "h2d_bytes": 1000, "kernel_us": 250.0}
    fallen = dict(cell, kernel_us=249.5)
    assert _run(gate, tmp_path, _record(a=cell), _record(a=fallen)) == 0


def test_any_makespan_rise_fails(gate, tmp_path):
    # fig8's per-(algo, P) makespan is the simulated clock its speedups
    # come from; like kernel_us it is gated exactly.
    cell = {"kernel_launches": 25, "h2d_bytes": 1000, "makespan_us": 238.888}
    risen = dict(cell, makespan_us=238.889)
    assert _run(gate, tmp_path, _record(bfs_P8=cell), _record(bfs_P8=risen)) == 1


def test_makespan_fall_passes(gate, tmp_path):
    cell = {"kernel_launches": 25, "h2d_bytes": 1000, "makespan_us": 238.888}
    fallen = dict(cell, makespan_us=231.5)
    assert _run(gate, tmp_path, _record(bfs_P8=cell), _record(bfs_P8=fallen)) == 0
