"""Smoke tests for tools/sim_fingerprint.py: runs, is deterministic, and
covers every simulated spec of the suites it is asked for."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.no_multi_sim


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "sim_fingerprint", REPO / "tools" / "sim_fingerprint.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_two_programs_digest_deterministically(capsys):
    tool = _load_tool()
    args = ["--suite", "fuzz", "--suite", "mutation", "--programs", "2", "--mutations", "2"]
    assert tool.main(args) == 0
    printed = json.loads(capsys.readouterr().out)
    expected = {f"fuzz {s}" for s in tool.FUZZ_SPECS}
    expected |= {f"mutation {s}" for s in tool.MUTATION_SPECS}
    assert set(printed) == expected
    assert all(e["programs"] == 2 for e in printed.values())
    # A second run in the same process digests the same counters.
    again = tool.fingerprint("fuzz", 2)
    assert {k: v["digest"] for k, v in again.items()} == {
        k: v["digest"] for k, v in printed.items() if k.startswith("fuzz ")
    }


def test_serve_suite_covers_every_spec():
    tool = _load_tool()
    printed = tool.fingerprint("serve", 0)
    assert set(printed) == {f"serve {s}" for s in tool.SERVE_SPECS}
    # Two traces, each batched and with max_batch=1.
    assert all(e["programs"] == 4 for e in printed.values())
