"""gbcheck unit + acceptance tests: the analyzer itself.

Covers the loader (imports, kernel registry), each dataflow rule on
minimal synthetic programs (including the interprocedural paths), the
finding/baseline machinery, the CLI, and the two tree-wide acceptance
criteria: the real tree is clean, and access-set inference reports zero
undeclared reads/writes across the cuda_sim and multi_sim kernels.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    Program,
    analyze_sources,
    analyze_tree,
    findings_from_json,
    findings_to_json,
)
from repro.analysis.rules import (
    check_kernel_accesses,
    check_launch_sites,
    collect_directives,
)
from repro.analysis.summaries import build_summaries, propagate_effects

REPO = Path(__file__).resolve().parent.parent
PKG_ROOT = REPO / "src" / "repro"

pytestmark = pytest.mark.no_multi_sim


def _rules(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


class TestLoader:
    def test_kernel_resolution_across_modules(self):
        prog = Program.from_sources(
            {
                "backends/x/kernels.py": (
                    "K = Kernel('k', lambda a: a.values, lambda a: None,\n"
                    "           accesses=lambda a: Access(reads=(a,)))\n"
                ),
                "backends/x/backend.py": (
                    "from .kernels import K\n"
                    "def go(c):\n"
                    "    launch(K, cfg, c)\n"
                ),
            }
        )
        mod = prog.module_for("backends/x/backend.py")
        resolved = prog.resolve_kernel(mod, "K")
        assert resolved is not None
        kmod, decl = resolved
        assert kmod.relpath == "backends/x/kernels.py"
        assert decl.kernel_name == "k"

    def test_alias_resolution(self):
        prog = Program.from_sources(
            {
                "backends/x/k.py": (
                    "K = Kernel('k', lambda a: a, lambda a: None,\n"
                    "           accesses=lambda a: Access(reads=(a,)))\n"
                    "ALIAS = K\n"
                ),
            }
        )
        mod = prog.module_for("backends/x/k.py")
        resolved = prog.resolve_kernel(mod, "ALIAS")
        assert resolved is not None and resolved[1].var == "K"

    def test_relative_import_resolution(self):
        prog = Program.from_sources(
            {
                "streaming/overlay.py": "def merge_overlay(base, overlay):\n    return base.values\n",
                "streaming/graph.py": (
                    "from .overlay import merge_overlay\n"
                    "def use(b, o):\n"
                    "    return merge_overlay(b, o)\n"
                ),
            }
        )
        gmod = prog.module_for("streaming/graph.py")
        resolved = prog.resolve_function(gmod, "merge_overlay")
        assert resolved is not None
        assert resolved[0].relpath == "streaming/overlay.py"


# ---------------------------------------------------------------------------
# Rule 1: access-set inference
# ---------------------------------------------------------------------------


class TestAccessInference:
    def test_undeclared_write_flagged(self):
        rep = analyze_sources(
            {
                "backends/x/k.py": (
                    "def _scale(out, s):\n"
                    "    out.values[:] = out.values * s\n"
                    "K = Kernel('scale', _scale, lambda out, s: None,\n"
                    "           accesses=lambda out, s: Access(reads=(out,)))\n"
                )
            }
        )
        assert _rules(rep, "access-undeclared-write"), rep.findings

    def test_undeclared_read_through_helper(self):
        # The read happens two calls deep; the fixpoint must surface it.
        rep = analyze_sources(
            {
                "backends/x/k.py": (
                    "def _inner(m):\n"
                    "    return m.indptr\n"
                    "def _outer(m):\n"
                    "    return _inner(m)\n"
                    "K = Kernel('r', lambda a, b: _outer(b), lambda a, b: None,\n"
                    "           accesses=lambda a, b: Access(reads=(a,)))\n"
                )
            }
        )
        found = _rules(rep, "access-undeclared-read")
        assert found and "'b'" in found[0].message, rep.findings

    @pytest.mark.parametrize("method", ["row_ids", "flat_keys"])
    def test_undeclared_read_through_key_codec(self, method):
        # The CSR key codec reads indptr/indices: a kernel reaching an
        # operand only through it still reads that operand's payload.
        rep = analyze_sources(
            {
                "backends/x/k.py": (
                    f"K = Kernel('r', lambda a, b: a.values + b.{method}(),\n"
                    "           lambda a, b: None,\n"
                    "           accesses=lambda a, b: Access(reads=(a,)))\n"
                )
            }
        )
        found = _rules(rep, "access-undeclared-read")
        assert found and "'b'" in found[0].message, rep.findings

    def test_over_declaration_flagged(self):
        rep = analyze_sources(
            {
                "backends/x/k.py": (
                    "K = Kernel('r', lambda a, b: a.values, lambda a, b: None,\n"
                    "           accesses=lambda a, b: Access(reads=(a, b)))\n"
                )
            }
        )
        found = _rules(rep, "access-over-declared")
        assert found and "'b'" in found[0].message, rep.findings

    def test_reads_all_idiom_accepts_reads_rejects_writes(self):
        src = (
            "def _reads_all(*args, **kwargs):\n"
            "    return Access(reads=tuple(args) + tuple(kwargs.values()))\n"
            "GOOD = Kernel('g', lambda a, b: a.values + b.values,\n"
            "              lambda a, b: None, accesses=_reads_all)\n"
            "def _mut(a):\n"
            "    a.values[:] = 0\n"
            "BAD = Kernel('m', _mut, lambda a: None, accesses=_reads_all)\n"
        )
        rep = analyze_sources({"backends/x/k.py": src})
        assert not _rules(rep, "access-undeclared-read")
        bad = _rules(rep, "access-undeclared-write")
        assert bad and bad[0].symbol == "BAD", rep.findings

    def test_clean_explicit_declaration(self):
        rep = analyze_sources(
            {
                "backends/x/k.py": (
                    "def _copy(a, out):\n"
                    "    out.values[:] = a.values\n"
                    "K = Kernel('k', _copy, lambda a, out: None,\n"
                    "           accesses=lambda a, out: Access(reads=(a,), writes=(out,)))\n"
                )
            }
        )
        # (The syntactic container-mutation rule still notes the raw store;
        # only the access-set verdict is under test here.)
        assert not [f for f in rep.findings if f.rule.startswith("access-")], (
            rep.findings
        )


# ---------------------------------------------------------------------------
# Rule 2: version-bump soundness
# ---------------------------------------------------------------------------


class TestVersionBump:
    def test_local_store_without_bump_flagged(self):
        rep = analyze_sources(
            {
                "core/x.py": (
                    "def patch(m):\n"
                    "    c = m.container\n"
                    "    c.values[0] = 1.0\n"
                )
            }
        )
        assert _rules(rep, "version-bump-missing"), rep.findings

    def test_local_store_with_bump_clean(self):
        rep = analyze_sources(
            {
                "core/x.py": (
                    "def patch(m):\n"
                    "    c = m.container\n"
                    "    c.values[0] = 1.0  # gbsan: ok(container-mutation) -- overwrite; bump below flips the dirty bit\n"
                    "    c.bump_version()\n"
                )
            }
        )
        assert rep.clean, rep.findings

    def test_helper_store_discharged_by_calling_bumper(self):
        # The helper stores; its only caller bumps after the call — the
        # interprocedural pass must accept this split.
        rep = analyze_sources(
            {
                "core/x.py": (
                    "def _raw_store(c, v):\n"
                    "    c.values[0] = v  # gbsan: ok(container-mutation) -- caller bumps; split store/bump helper\n"
                    "def set_elem(c, v):\n"
                    "    _raw_store(c, v)\n"
                    "    c.bump_version()\n"
                )
            }
        )
        assert not _rules(rep, "version-bump-missing"), rep.findings

    def test_helper_store_without_caller_bump_flagged_at_call_site(self):
        rep = analyze_sources(
            {
                "core/x.py": (
                    "def _raw_store(c, v):\n"
                    "    c.values[0] = v  # gbsan: ok(container-mutation) -- caller bumps; split store/bump helper\n"
                    "def set_elem(c, v):\n"
                    "    _raw_store(c, v)\n"
                )
            }
        )
        found = _rules(rep, "version-bump-missing")
        assert found, rep.findings

    def test_fresh_container_store_exempt(self):
        rep = analyze_sources(
            {
                "core/x.py": (
                    "def build(n):\n"
                    "    c = CSRMatrix(n, n)\n"
                    "    c.values[:] = 1.0  # gbsan: ok(container-mutation) -- fresh container, pre-first-version fill\n"
                    "    return c\n"
                )
            }
        )
        assert not _rules(rep, "version-bump-missing"), rep.findings


# ---------------------------------------------------------------------------
# Rule 3: forcing-point completeness
# ---------------------------------------------------------------------------


class TestForcingPoints:
    def test_unforced_observation_flagged(self):
        rep = analyze_sources(
            {"serve/x.py": "def peek(v):\n    return v._container\n"}
        )
        assert _rules(rep, "forcing-point-missing"), rep.findings

    def test_local_force_dominates(self):
        rep = analyze_sources(
            {
                "serve/x.py": (
                    "def peek(v):\n"
                    "    v._settle()\n"
                    "    return v._container\n"
                )
            }
        )
        assert rep.clean, rep.findings

    def test_caller_force_dominates_callee_observation(self):
        # compact()-style split: the public entry settles, the helper swaps.
        rep = analyze_sources(
            {
                "streaming/x.py": (
                    "def _swap(base, arrays):\n"
                    "    base.install_arrays(*arrays)\n"
                    "def compact(m, base, arrays):\n"
                    "    m._settle()\n"
                    "    _swap(base, arrays)\n"
                )
            }
        )
        assert not _rules(rep, "forcing-point-missing"), rep.findings

    def test_undominated_call_site_flagged(self):
        rep = analyze_sources(
            {
                "streaming/x.py": (
                    "def _swap(base, arrays):\n"
                    "    base.install_arrays(*arrays)\n"
                    "def compact(m, base, arrays):\n"
                    "    _swap(base, arrays)\n"
                )
            }
        )
        assert _rules(rep, "forcing-point-missing"), rep.findings


# ---------------------------------------------------------------------------
# Findings / baseline machinery
# ---------------------------------------------------------------------------


class TestFindingsAndBaseline:
    def test_fingerprint_is_line_independent(self):
        a = Finding("x.py", 10, "argsort", "argsort on a hot path", "f")
        b = Finding("x.py", 99, "argsort", "argsort on a hot path", "f")
        assert a.fingerprint == b.fingerprint
        c = Finding("x.py", 10, "argsort", "argsort on a hot path", "g")
        assert a.fingerprint != c.fingerprint

    def test_json_roundtrip(self):
        fs = [Finding("a.py", 1, "r", "m", "s"), Finding("b.py", 2, "r2", "m2")]
        back = findings_from_json(findings_to_json(fs))
        assert back == fs

    def test_baseline_gates_only_new_findings(self, tmp_path):
        old = Finding("a.py", 1, "argsort", "known issue", "f")
        new = Finding("b.py", 2, "argsort", "fresh issue", "g")
        path = tmp_path / "baseline.json"
        Baseline().save(path, [old])
        bl = Baseline.load(path)
        assert bl.new_findings([old, new]) == [new]
        # Line drift must not un-baseline a finding.
        drifted = Finding("a.py", 55, "argsort", "known issue", "f")
        assert bl.new_findings([drifted]) == []

    def test_missing_baseline_is_empty(self, tmp_path):
        bl = Baseline.load(tmp_path / "nope.json")
        f = Finding("a.py", 1, "r", "m")
        assert bl.new_findings([f]) == [f]


# ---------------------------------------------------------------------------
# Suppression audit plumbing
# ---------------------------------------------------------------------------


class TestDirectives:
    def test_docstring_examples_are_not_directives(self):
        src = '"""Example::\n\n    x  # gbsan: ok(argsort) -- docstring sample\n"""\nX = 1\n'
        assert collect_directives(src, "x.py") == []

    def test_comment_directives_collected_with_reason(self):
        src = "import numpy as np\norder = np.argsort(k)  # gbsan: ok(argsort) -- cold diagnostics path only\n"
        ds = collect_directives(src, "x.py")
        assert len(ds) == 1
        assert ds[0].rules == ("argsort",)
        assert ds[0].has_real_reason

    def test_placeholder_reasons_rejected(self):
        for reason in ("reason", "todo", "x"):
            src = f"a = 1  # gbsan: ok(argsort) -- {reason}\n"
            (d,) = collect_directives(src, "x.py")
            assert not d.has_real_reason, reason


# ---------------------------------------------------------------------------
# unused-import (syntactic)
# ---------------------------------------------------------------------------


class TestUnusedImport:
    def test_planted_unused_imports_flagged(self):
        rep = analyze_sources(
            {
                "core/x.py": (
                    "from __future__ import annotations\n"
                    "import os.path\n"
                    "import numpy as np\n"
                    "from typing import Optional, Tuple\n"
                    "from .csc import CSCMatrix as View\n"
                    "def f(x: Optional[int]):\n"
                    "    return x\n"
                )
            }
        )
        found = sorted(
            (f.line, f.message.split("'")[1]) for f in _rules(rep, "unused-import")
        )
        assert found == [(2, "os"), (3, "np"), (4, "Tuple"), (5, "View")]

    def test_reads_annotations_all_and_exemptions_clean(self):
        body = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "from .csr import CSRMatrix, flat_keys\n"
            "if TYPE_CHECKING:\n"
            "    from .csc import CSCMatrix\n"
            "try:\n"
            "    from .fast import kernel\n"
            "except ImportError:\n"
            "    kernel = None\n"
            "__all__ = ['flat_keys']\n"
            "def f(a: 'CSCMatrix', b: Optional['CSRMatrix']) -> None:\n"
            "    return os.path.join(kernel)\n"
        )
        init = "import numpy as np\n"  # a package's imports are its surface
        rep = analyze_sources({"core/x.py": body, "core/__init__.py": init})
        assert _rules(rep, "unused-import") == []

    def test_suppressible_with_reasoned_directive(self):
        src = (
            "import numpy as np  # gbsan: ok(unused-import) -- "
            "imported for its registration side effect\n"
        )
        assert analyze_sources({"core/x.py": src}).findings == []


# ---------------------------------------------------------------------------
# Tree-wide acceptance
# ---------------------------------------------------------------------------


class TestTreeAcceptance:
    @pytest.fixture(scope="class")
    def tree_report(self):
        return analyze_tree(PKG_ROOT)

    def test_whole_tree_is_clean(self, tree_report):
        assert tree_report.findings == [], "\n".join(
            str(f) for f in tree_report.findings
        )

    def test_every_directive_in_tree_is_reasoned(self, tree_report):
        for d in tree_report.directives:
            assert d.has_real_reason, f"{d.relpath}:{d.line}: {d.reason!r}"

    def test_zero_undeclared_accesses_in_sim_backends(self):
        # Acceptance: access-set inference across every cuda_sim and
        # multi_sim kernel and launch site reports nothing undeclared.
        prog = Program.from_tree(PKG_ROOT)
        summaries = build_summaries(prog)
        propagate_effects(prog, summaries)
        findings = check_kernel_accesses(prog, summaries)
        findings += check_launch_sites(prog, summaries)
        sim = [
            f
            for f in findings
            if f.path.startswith(("backends/cuda_sim/", "backends/multi_sim/"))
            and f.rule in ("access-undeclared-read", "access-undeclared-write",
                           "launch-undeclared-access")
        ]
        assert sim == [], "\n".join(str(f) for f in sim)

    def test_analyzer_subsumes_syntactic_lint(self, tree_report):
        # Every syntactic rule is represented in the raw finding pipeline
        # (the lint's own unit tests cover rule semantics; this pins the
        # absorption wiring: suppressed-but-live argsort sites are seen raw).
        raw_rules = {f.rule for f in tree_report.raw_findings}
        assert "argsort" in raw_rules and "uncharged-numpy" in raw_rules


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "gbcheck_cli", REPO / "tools" / "gbcheck.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCLI:
    def test_clean_tree_exits_zero_and_writes_json(self, tmp_path, capsys):
        cli = _load_cli()
        out = tmp_path / "findings.json"
        rc = cli.main(["--json", str(out), "--baseline",
                       str(REPO / "tools" / "gbcheck_baseline.json")])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tool"] == "gbcheck" and payload["count"] == 0
        assert "clean" in capsys.readouterr().out

    def test_update_baseline_roundtrip(self, tmp_path, capsys):
        cli = _load_cli()
        bl = tmp_path / "bl.json"
        rc = cli.main(["--update-baseline", str(bl)])
        assert rc == 0
        assert json.loads(bl.read_text())["findings"] == []
