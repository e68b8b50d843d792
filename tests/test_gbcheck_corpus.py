"""Planted-violation corpus: every static rule paired with its runtime twin.

Each test takes one file from ``tests/corpus`` and asserts both halves of
the contract:

* **static** — gbcheck, analyzing the file's source under a virtual
  in-tree path (which activates the right rule scopes), flags the planted
  violation and stays quiet on the fixed twin in the same file;
* **runtime** — executing the same code (or the hazard pattern it hides)
  against a warm simulated device makes gbsan report the matching runtime
  finding, while the buggy twin demonstrates the blind spot the static
  rule exists to close.

The corpus modules live under ``tests/`` so the real-tree gbcheck run
(`tools/gbcheck.py` over ``src/repro``) never sees them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro as gb
import repro.sanitizer as gbsan
from repro.algorithms.bfs import bfs_levels
from repro.analysis import analyze_sources
from repro.core.matrix import Matrix
from repro.gpu.device import Device
from repro.streaming import EdgeBatch, merge_overlay
from repro.testing.executor import backend_session
from repro.types import FP64

from tests.corpus import planted_access, planted_bump, planted_forcing
from tests.corpus import planted_suppression

pytestmark = pytest.mark.no_multi_sim

CORPUS = Path(__file__).resolve().parent / "corpus"


def _analyze(filename: str, virtual_relpath: str):
    source = (CORPUS / filename).read_text(encoding="utf-8")
    return analyze_sources({virtual_relpath: source})


def _ring(n: int) -> Matrix:
    rows = np.arange(n, dtype=np.int64)
    cols = (rows + 1) % n
    return Matrix.from_lists(rows, cols, np.ones(n), n, n, FP64)


def _vec(n: int = 8):
    v = gb.Vector.from_lists(
        list(range(n)), [float(i) + 1.0 for i in range(n)], n, gb.FP64
    )
    return v.container


# ---------------------------------------------------------------------------
# Rule 1: access sets — launch of an undeclared-access kernel
# ---------------------------------------------------------------------------


class TestAccessPlant:
    def test_static_flags_undeclared_launch_only(self):
        rep = _analyze("planted_access.py", "backends/cuda_sim/planted_access.py")
        hits = [f for f in rep.findings if f.rule == "launch-undeclared-access"]
        assert sorted(f.symbol for f in hits) == [
            "PlantedBackend.undeclared_reduce",
            "undeclared_reduce",
        ], rep.findings

    def test_runtime_gbsan_blind_without_declaration_catches_with(self):
        with gbsan.sanitized() as san:
            dev = Device()
            c = _vec()  # never uploaded: any declared read is unresident
            planted_access.undeclared_reduce(c, dev)
            blind = san.drain()
            assert "unresident-read" not in {f.kind for f in blind}, blind
            planted_access.declared_reduce(c, dev)
            kinds = {f.kind for f in san.drain()}
        assert "unresident-read" in kinds


# ---------------------------------------------------------------------------
# Rule 2: version-bump soundness
# ---------------------------------------------------------------------------


class TestBumpPlant:
    def test_static_flags_unbumped_store_only(self):
        rep = _analyze("planted_bump.py", "core/planted_bump.py")
        hits = [f for f in rep.findings if f.rule == "version-bump-missing"]
        assert hits, rep.findings
        assert {f.symbol for f in hits} == {"scale_in_place"}

    def test_runtime_bump_is_the_signal_gbsan_needs(self):
        with gbsan.sanitized() as san:
            with backend_session("cuda_sim") as be:
                m = _ring(12)
                base = m.container
                bfs_levels(m, 0)  # warm: adjacency device-resident
                san.drain()

                # The plant: mutate in place, never bump.  The residency
                # shadow sees an unchanged version, so the later device
                # read looks clean — gbsan is blind to exactly this.
                planted_bump.scale_in_place(base, 2.0)
                be._device_transpose(base)
                blind = san.drain()
                assert "stale-read" not in {f.kind for f in blind}, blind

                # Protocol-correct twin: the bump makes the elided device
                # refresh visible as a stale read.
                planted_bump.scale_with_bump(base, 2.0)
                be._device_transpose(base)
                kinds = {f.kind for f in san.drain()}
        assert "stale-read" in kinds


# ---------------------------------------------------------------------------
# Rule 3: forcing points
# ---------------------------------------------------------------------------


class TestForcingPlant:
    def test_static_flags_unforced_swap_and_raw_peek(self):
        rep = _analyze("planted_forcing.py", "serve/planted_forcing.py")
        hits = [f for f in rep.findings if f.rule == "forcing-point-missing"]
        assert {f.symbol for f in hits} == {"swap_unforced", "peek_raw"}, (
            rep.findings
        )

    def test_runtime_unforced_swap_trips_stale_read(self):
        with gbsan.sanitized() as san:
            with backend_session("cuda_sim") as be:
                m = _ring(12)
                base = m.container
                bfs_levels(m, 0)
                san.drain()
                delta = EdgeBatch.inserts([0, 3, 5], [4, 7, 2], [1.0] * 3).normalized()
                planted_forcing.swap_unforced(base, merge_overlay(base, delta))
                be._device_transpose(base)
            kinds = {f.kind for f in san.drain()}
        assert "stale-read" in kinds


# ---------------------------------------------------------------------------
# Rule 4: suppression audit
# ---------------------------------------------------------------------------


class TestSuppressionPlant:
    def test_static_audit_findings_and_surviving_hazards(self):
        rep = _analyze(
            "planted_suppression.py", "backends/cpu/planted_suppression.py"
        )
        rules = {f.rule for f in rep.findings}
        # The audit itself.
        assert "suppression-placeholder-reason" in rules, rep.findings
        assert "suppression-unknown-rule" in rules, rep.findings
        assert "suppression-stale" in rules, rep.findings
        # A bogus suppression must not actually suppress: the hazards it
        # tried to hide survive into the report.
        assert any(
            f.rule == "container-mutation" and f.symbol != "honest_mutation"
            for f in rep.findings
        ), rep.findings
        assert any(f.rule == "argsort" for f in rep.findings), rep.findings
        # The one valid directive works: honest_mutation is not reported.
        assert not any(
            f.symbol == "honest_mutation" for f in rep.findings
        ), rep.findings

    def test_runtime_hazard_behind_bogus_suppression_is_real(self):
        # The placeholder-suppressed pattern is an in-place payload
        # mutation; run it under the version protocol against a warm
        # device and gbsan reports the stale read it leads to.
        with gbsan.sanitized() as san:
            with backend_session("cuda_sim") as be:
                m = _ring(12)
                base = m.container
                bfs_levels(m, 0)
                san.drain()
                planted_suppression.sneaky_mutation(base, 2.0)
                base.bump_version()
                be._device_transpose(base)
            kinds = {f.kind for f in san.drain()}
        assert "stale-read" in kinds
