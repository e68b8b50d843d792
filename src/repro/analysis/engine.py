"""gbcheck orchestration: syntactic lint + dataflow rules + suppression.

The engine runs the syntactic rule set (:mod:`repro.analysis.syntactic`)
and the four dataflow rules over a :class:`~repro.analysis.loader.Program`,
audits every suppression directive against the *raw* (pre-suppression)
finding set, then applies valid directives.  Audit findings themselves are
not suppressible — a bad directive cannot vouch for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set, Tuple

from .findings import Finding
from .loader import Program
from .rules import (
    Directive,
    audit_suppressions,
    check_forcing_points,
    check_kernel_accesses,
    check_launch_sites,
    check_version_bumps,
    collect_directives,
)
from .summaries import build_summaries, propagate_effects
from .syntactic import SyntacticVisitor, rules_for

__all__ = ["Report", "analyze_program", "analyze_sources", "analyze_tree"]

_AUDIT_RULES = frozenset(
    {"suppression-unknown-rule", "suppression-placeholder-reason", "suppression-stale"}
)


@dataclass
class Report:
    """A full gbcheck run: surviving findings plus audit metadata."""

    findings: List[Finding] = field(default_factory=list)
    raw_findings: List[Finding] = field(default_factory=list)
    directives: List[Directive] = field(default_factory=list)
    modules_analyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _syntactic_findings(program: Program) -> List[Finding]:
    """Raw (pre-suppression) findings from the syntactic rules."""
    out: List[Finding] = []
    for mod in program.modules.values():
        visitor = SyntacticVisitor(mod.relpath, rules_for(mod.relpath))
        visitor.visit(mod.tree)
        out.extend(visitor.raw)
    return out


def analyze_program(program: Program) -> Report:
    summaries = build_summaries(program)
    propagate_effects(program, summaries)

    raw: List[Finding] = []
    raw.extend(_syntactic_findings(program))
    raw.extend(check_kernel_accesses(program, summaries))
    raw.extend(check_launch_sites(program, summaries))
    raw.extend(check_version_bumps(program, summaries))
    raw.extend(check_forcing_points(program, summaries))

    directives: List[Directive] = []
    for mod in program.modules.values():
        directives.extend(collect_directives(mod.source, mod.relpath))

    audit = audit_suppressions(directives, raw)

    # A directive suppresses matching rules on its own line and the line
    # below — but only when it names real rules and carries a real reason.
    suppressed: Dict[Tuple[str, int], Set[str]] = {}
    for d in directives:
        if not d.has_real_reason:
            continue
        for line in (d.line, d.line + 1):
            suppressed.setdefault((d.relpath, line), set()).update(d.rules)

    surviving = [
        f for f in raw if f.rule not in suppressed.get((f.path, f.line), set())
    ]
    surviving.extend(audit)
    surviving.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    return Report(
        findings=surviving,
        raw_findings=raw,
        directives=directives,
        modules_analyzed=len(program.modules),
    )


def analyze_sources(sources: Dict[str, str]) -> Report:
    """Analyze in-memory ``{relpath: source}`` modules (tests, corpora)."""
    return analyze_program(Program.from_sources(sources))


def analyze_tree(package_root: Path) -> Report:
    """Analyze the whole ``repro/`` package rooted at ``package_root``."""
    return analyze_program(Program.from_tree(package_root))
