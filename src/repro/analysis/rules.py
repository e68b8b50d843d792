"""The four gbcheck dataflow rules.

``access-undeclared-read`` / ``access-undeclared-write`` / ``access-over-declared``
    Rule 1a: infer the payload arrays a kernel's run-closure touches
    (through helper calls) and diff against the declared ``accesses=``.

``launch-undeclared-access``
    Rule 1b: a launch of a kernel with no declared accesses (the
    ``_no_declared_access`` idiom) must declare its operands at the launch
    site via ``san_reads=``/``san_writes=`` when any operand is a container.
    A launch site is a bare ``launch(kernel, cfg, ...)`` call or a method
    call ``<obj>._launch(kernel, cfg, ...)`` (cuda_sim's launch wrapper).

``version-bump-missing``
    Rule 2: a store into container payload must reach ``bump_version``/
    ``install_arrays`` on the same base before returning — checked through
    the call graph, so a helper that stores may rely on its caller to bump.

``forcing-point-missing``
    Rule 3: serve/streaming code observing raw container state
    (``._container`` slots, ``install_arrays`` swaps) must be dominated by
    a forcing point (``force``/``sync``/``_settle``/...) either locally or
    at every in-scope call site.

``suppression-unknown-rule`` / ``suppression-placeholder-reason`` / ``suppression-stale``
    Rule 4: every ``# gbsan: ok(rule) -- reason`` directive must name a
    real rule, carry a meaningful reason, and suppress a live finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .loader import KernelDecl, Module, Program
from .summaries import (
    PAYLOAD_ATTRS,
    FunctionSummary,
    SummaryKey,
    summarize_lambda,
)

__all__ = [
    "SYNTACTIC_RULES",
    "DATAFLOW_RULES",
    "KNOWN_RULES",
    "Directive",
    "collect_directives",
    "check_kernel_accesses",
    "check_launch_sites",
    "check_version_bumps",
    "check_forcing_points",
    "audit_suppressions",
]

SYNTACTIC_RULES = frozenset(
    {
        "kernel-decl",
        "fused-kernel-decl",
        "container-mutation",
        "argsort",
        "uncharged-numpy",
        "unused-import",
    }
)
DATAFLOW_RULES = frozenset(
    {
        "access-undeclared-read",
        "access-undeclared-write",
        "access-over-declared",
        "launch-undeclared-access",
        "version-bump-missing",
        "forcing-point-missing",
    }
)
KNOWN_RULES = SYNTACTIC_RULES | DATAFLOW_RULES

#: Module prefixes whose launches / stores are device-orchestration code.
_LAUNCH_SCOPE = ("backends/", "lazy/", "streaming/", "serve/")
_BUMP_SCOPE = ("backends/", "lazy/", "algorithms/", "core/", "serve/", "streaming/")
_FORCING_SCOPE = ("serve/", "streaming/")


def _in_scope(relpath: str, prefixes: Tuple[str, ...]) -> bool:
    return relpath.startswith(prefixes)


# ---------------------------------------------------------------------------
# Rule 1a: kernel access-set inference vs. declaration
# ---------------------------------------------------------------------------

#: classification kinds for an ``accesses=`` expression
_ALL = "all"
_EMPTY = "empty"
_NONE = "none"
_DYNAMIC = "dynamic"
_EXPLICIT = "explicit"


@dataclass(frozen=True)
class _AccessDecl:
    kind: str
    reads: Tuple[int, ...] = ()  # positions into the run params
    writes: Tuple[int, ...] = ()


def _parse_access_body(
    body: ast.expr, params: Sequence[str], vararg: Optional[str]
) -> Optional[_AccessDecl]:
    """Parse ``Access(reads=..., writes=...)`` into param positions."""
    if not (
        isinstance(body, ast.Call)
        and isinstance(body.func, ast.Name)
        and body.func.id == "Access"
    ):
        return None
    if not body.args and not body.keywords:
        return _AccessDecl(_EMPTY)
    names_used = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    if vararg is not None and vararg in names_used:
        return _AccessDecl(_ALL)
    reads: List[int] = []
    writes: List[int] = []
    for kw in body.keywords:
        elems = kw.value.elts if isinstance(kw.value, ast.Tuple) else [kw.value]
        positions: List[int] = []
        for el in elems:
            if not isinstance(el, ast.Name) or el.id not in params:
                return _AccessDecl(_DYNAMIC)
            positions.append(list(params).index(el.id))
        if kw.arg == "reads":
            reads = positions
        elif kw.arg == "writes":
            writes = positions
    return _AccessDecl(_EXPLICIT, tuple(reads), tuple(writes))


def _classify_accesses(
    program: Program, module: Module, decl: KernelDecl, depth: int = 0
) -> _AccessDecl:
    expr = decl.accesses
    if expr is None:
        return _AccessDecl(_NONE)
    if depth > 4:
        return _AccessDecl(_DYNAMIC)
    if isinstance(expr, ast.Lambda):
        params = [a.arg for a in expr.args.args]
        vararg = expr.args.vararg.arg if expr.args.vararg else None
        parsed = _parse_access_body(expr.body, params, vararg)
        return parsed if parsed is not None else _AccessDecl(_DYNAMIC)
    if isinstance(expr, ast.Name):
        resolved = program.resolve_function(module, expr.id)
        if resolved is None:
            return _AccessDecl(_DYNAMIC)
        rmod, rqual = resolved
        fn = rmod.functions[rqual]
        params = [a.arg for a in fn.args.args]
        vararg = fn.args.vararg.arg if fn.args.vararg else None
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                parsed = _parse_access_body(node.value, params, vararg)
                if parsed is not None:
                    return parsed
        return _AccessDecl(_DYNAMIC)
    if isinstance(expr, ast.Attribute) and expr.attr == "accesses":
        if isinstance(expr.value, ast.Name):
            base = program.resolve_kernel(module, expr.value.id)
            if base is not None:
                bmod, bdecl = base
                return _classify_accesses(program, bmod, bdecl, depth + 1)
        return _AccessDecl(_DYNAMIC)
    return _AccessDecl(_DYNAMIC)


def _run_effects(
    program: Program,
    summaries: Dict[SummaryKey, FunctionSummary],
    module: Module,
    decl: KernelDecl,
) -> Optional[Tuple[List[str], Set[int], Set[int]]]:
    """(params, read positions, write positions) for a kernel run-closure."""
    run = decl.run
    s: Optional[FunctionSummary] = None
    if isinstance(run, ast.Lambda):
        s = summarize_lambda(module.relpath, f"<run:{decl.var}>", run)
        # Close over helper calls once; module summaries are already at
        # their fixpoint, so a single mapping pass is transitive.
        for ev in s.calls:
            if ev.is_method:
                continue
            resolved = program.resolve_function(module, ev.func)
            if resolved is None:
                continue
            callee = summaries.get((resolved[0].relpath, resolved[1]))
            if callee is None:
                continue
            for pos, argname in enumerate(ev.args):
                if argname is None or pos >= len(callee.params):
                    continue
                p = callee.params[pos]
                if p in callee.payload_reads:
                    s.payload_reads.add(argname)
                if p in callee.payload_writes:
                    s.payload_writes.add(argname)
    elif isinstance(run, ast.Name):
        resolved = program.resolve_function(module, run.id)
        if resolved is None:
            return None
        s = summaries.get((resolved[0].relpath, resolved[1]))
    if s is None:
        return None
    reads = {s.params.index(p) for n in s.payload_reads if (p := s.root_param(n))}
    writes = {s.params.index(p) for n in s.payload_writes if (p := s.root_param(n))}
    return s.params, reads, writes


def check_kernel_accesses(
    program: Program, summaries: Dict[SummaryKey, FunctionSummary]
) -> List[Finding]:
    findings: List[Finding] = []
    for mod in program.modules.values():
        for decl in mod.kernels.values():
            acc = _classify_accesses(program, mod, decl)
            if acc.kind in (_EMPTY, _NONE, _DYNAMIC):
                continue  # launch-site rule covers empty/none declarations
            effects = _run_effects(program, summaries, mod, decl)
            if effects is None:
                continue
            params, inf_reads, inf_writes = effects
            kname = decl.kernel_name or decl.var
            if acc.kind == _ALL:
                declared_reads: Set[int] = set(range(len(params)))
                declared_writes: Set[int] = set()
                check_over = False
            else:
                declared_reads = set(acc.reads)
                declared_writes = set(acc.writes)
                check_over = True
            for pos in sorted(inf_reads - declared_reads - declared_writes):
                findings.append(
                    Finding(
                        mod.relpath,
                        decl.line,
                        "access-undeclared-read",
                        f"kernel '{kname}' run reads payload of '{params[pos]}' "
                        "which is not in the declared access set; gbsan cannot "
                        "order this read against racing writers",
                        symbol=decl.var,
                    )
                )
            for pos in sorted(inf_writes - declared_writes):
                findings.append(
                    Finding(
                        mod.relpath,
                        decl.line,
                        "access-undeclared-write",
                        f"kernel '{kname}' run writes payload of '{params[pos]}' "
                        "which is not in the declared write set; gbsan cannot "
                        "invalidate residency for this write",
                        symbol=decl.var,
                    )
                )
            if check_over:
                for pos in sorted(declared_writes - inf_writes):
                    findings.append(
                        Finding(
                            mod.relpath,
                            decl.line,
                            "access-over-declared",
                            f"kernel '{kname}' declares a write to "
                            f"'{params[pos]}' its run never performs",
                            symbol=decl.var,
                        )
                    )
                for pos in sorted(declared_reads - inf_reads - inf_writes):
                    findings.append(
                        Finding(
                            mod.relpath,
                            decl.line,
                            "access-over-declared",
                            f"kernel '{kname}' declares a read of "
                            f"'{params[pos]}' its run never performs",
                            symbol=decl.var,
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# Rule 1b: launch sites of undeclared-access kernels
# ---------------------------------------------------------------------------


def _is_container_operand(arg: ast.expr, s: FunctionSummary) -> bool:
    if isinstance(arg, ast.Attribute) and arg.attr in PAYLOAD_ATTRS:
        return True
    if isinstance(arg, ast.Name):
        # A bare name counts only when the function demonstrably treats it
        # as a container (payload access somewhere) — scalars, monoids, and
        # op objects are routinely passed positionally and must not flag.
        return (
            arg.id in s.payload_reads
            or arg.id in s.payload_writes
            or (s.root_param(arg.id) or arg.id) in s.payload_reads
            or (s.root_param(arg.id) or arg.id) in s.payload_writes
        )
    return False


def _is_launch_call(node: ast.AST) -> bool:
    """``launch(K, ...)`` or ``<obj>._launch(K, ...)`` with a named kernel."""
    if not (
        isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
    ):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "launch") or (
        isinstance(f, ast.Attribute) and f.attr == "_launch"
    )


def check_launch_sites(
    program: Program, summaries: Dict[SummaryKey, FunctionSummary]
) -> List[Finding]:
    findings: List[Finding] = []
    for mod in program.modules.values():
        if not _in_scope(mod.relpath, _LAUNCH_SCOPE):
            continue
        for qualname, fn in mod.functions.items():
            s = summaries[(mod.relpath, qualname)]
            for node in ast.walk(fn):
                if not _is_launch_call(node):
                    continue
                resolved_k = program.resolve_kernel(mod, node.args[0].id)
                if resolved_k is None:
                    continue
                kmod, decl = resolved_k
                acc = _classify_accesses(program, kmod, decl)
                if acc.kind not in (_EMPTY, _NONE):
                    continue
                kwargs = {kw.arg for kw in node.keywords}
                if "san_reads" in kwargs or "san_writes" in kwargs:
                    continue
                operands = [a for a in node.args[2:] if _is_container_operand(a, s)]
                if not operands:
                    continue
                kname = decl.kernel_name or decl.var
                findings.append(
                    Finding(
                        mod.relpath,
                        node.lineno,
                        "launch-undeclared-access",
                        f"launch of '{kname}' (no declared accesses) passes "
                        f"{len(operands)} container operand(s) without "
                        "san_reads=/san_writes=; gbsan sees nothing at this site",
                        symbol=qualname,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Rule 2: version-bump soundness through the call graph
# ---------------------------------------------------------------------------


def _resolve_call(
    program: Program,
    module: Module,
    caller_qualname: str,
    func: str,
    is_method: bool,
) -> Optional[Tuple[SummaryKey, int]]:
    """Resolve a call event to ``(summary key, positional offset)``.

    Method calls resolve within the caller's own class (``self._helper``),
    with offset 1 to skip the bound ``self`` param.
    """
    if not is_method:
        resolved = program.resolve_function(module, func)
        if resolved is None:
            return None
        return (resolved[0].relpath, resolved[1]), 0
    if "." in caller_qualname:
        cls = caller_qualname.split(".", 1)[0]
        cand = f"{cls}.{func}"
        if cand in module.functions:
            return (module.relpath, cand), 1
    return None


def _norm_base(s: FunctionSummary, name: str) -> str:
    return s.root_param(name) or name


def check_version_bumps(
    program: Program, summaries: Dict[SummaryKey, FunctionSummary]
) -> List[Finding]:
    # Kernel run helpers are exempt: the launch layer bumps via note_result.
    run_keys: Set[SummaryKey] = set()
    for mod in program.modules.values():
        for decl in mod.kernels.values():
            if isinstance(decl.run, ast.Name):
                resolved = program.resolve_function(mod, decl.run.id)
                if resolved is not None:
                    run_keys.add((resolved[0].relpath, resolved[1]))

    scoped: List[Tuple[Module, str, FunctionSummary]] = []
    for mod in program.modules.values():
        if not _in_scope(mod.relpath, _BUMP_SCOPE):
            continue
        for qualname in mod.functions:
            key = (mod.relpath, qualname)
            if key in run_keys:
                continue
            scoped.append((mod, qualname, summaries[key]))

    synthetic: Dict[SummaryKey, Set[Tuple[str, int]]] = {}
    param_stores: Dict[Tuple[SummaryKey, str], int] = {}
    findings: List[Finding] = []
    for _ in range(6):
        changed = False
        findings = []
        for mod, qualname, s in scoped:
            key = (mod.relpath, qualname)
            events = list(s.stores) + sorted(synthetic.get(key, ()))
            for base, line in events:
                nbase = _norm_base(s, base)
                if any(
                    _norm_base(s, b) == nbase and bl >= line for b, bl in s.bumps
                ):
                    continue
                root = s.root_param(base)
                if root is not None and root != "self":
                    param_stores.setdefault((key, root), line)
                    if root not in s.unbumped_params:
                        s.unbumped_params.add(root)
                        changed = True
                    continue
                if s.is_fresh(base) or base == "self":
                    continue
                findings.append(
                    Finding(
                        mod.relpath,
                        line,
                        "version-bump-missing",
                        f"payload store through '{base}' is not followed by "
                        "bump_version/install_arrays on any path out of "
                        f"{qualname}; aux caches and residency go stale silently",
                        symbol=qualname,
                    )
                )
        # Propagate: a call that hands a name to an unbumped-param callee is
        # itself a store of that name at the call line.
        for mod, qualname, s in scoped:
            key = (mod.relpath, qualname)
            for ev in s.calls:
                resolved = _resolve_call(program, mod, qualname, ev.func, ev.is_method)
                if resolved is None:
                    continue
                ckey, offset = resolved
                callee = summaries.get(ckey)
                if callee is None or not callee.unbumped_params:
                    continue
                for pos, argname in enumerate(ev.args):
                    ppos = pos + offset
                    if argname is None or ppos >= len(callee.params):
                        continue
                    if callee.params[ppos] in callee.unbumped_params:
                        ev_entry = (argname, ev.line)
                        if ev_entry not in synthetic.setdefault(key, set()):
                            synthetic[key].add(ev_entry)
                            changed = True
        if not changed:
            break

    # A param-rooted unbumped store relies on its callers to bump.  If no
    # in-scope caller exists, the function is a public entry point and no
    # one can be assumed to discharge the store — report it directly.
    for (key, root), line in sorted(param_stores.items()):
        relpath, qualname = key
        sites = [
            s_
            for s_ in program.call_sites_of(relpath, qualname)
            if _in_scope(s_[0].relpath, _BUMP_SCOPE)
        ]
        if sites:
            continue
        findings.append(
            Finding(
                relpath,
                line,
                "version-bump-missing",
                f"payload store through param '{root}' is never followed by "
                f"bump_version/install_arrays, and {qualname} has no in-tree "
                "caller that could discharge it; aux caches and residency go "
                "stale silently",
                symbol=qualname,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule 3: forcing-point completeness in serve/streaming
# ---------------------------------------------------------------------------


def check_forcing_points(
    program: Program, summaries: Dict[SummaryKey, FunctionSummary]
) -> List[Finding]:
    memo: Dict[SummaryKey, bool] = {}

    def covered(key: SummaryKey, stack: Set[SummaryKey]) -> bool:
        """True if every in-scope call site of ``key`` is force-dominated."""
        if key in memo:
            return memo[key]
        if key in stack:
            return False
        stack.add(key)
        relpath, qualname = key
        sites = [
            (m, c, line)
            for m, c, line in program.call_sites_of(relpath, qualname)
            if _in_scope(m.relpath, _FORCING_SCOPE)
        ]
        ok = bool(sites)
        for m, caller, line in sites:
            cs = summaries[(m.relpath, caller)]
            if cs.forced_before(line):
                continue
            if not covered((m.relpath, caller), stack):
                ok = False
                break
        stack.discard(key)
        memo[key] = ok
        return ok

    findings: List[Finding] = []
    for mod in program.modules.values():
        if not _in_scope(mod.relpath, _FORCING_SCOPE):
            continue
        for qualname in mod.functions:
            key = (mod.relpath, qualname)
            s = summaries[key]
            for kind, line in s.observations:
                if s.forced_before(line):
                    continue
                if covered(key, set()):
                    continue
                findings.append(
                    Finding(
                        mod.relpath,
                        line,
                        "forcing-point-missing",
                        f"host observation of container state ({kind}) is not "
                        "dominated by a forcing point (force/sync/_settle) "
                        "locally or at any in-scope call site; a pending lazy "
                        "tape could still rewrite this state",
                        symbol=qualname,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Rule 4: suppression audit
# ---------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(r"#\s*gbsan:\s*ok\(([a-z, -]+)\)(?:\s*--\s*(.*))?")

#: Reasons that explain nothing; directives carrying one do not suppress.
_PLACEHOLDER_REASONS = frozenset(
    {"reason", "todo", "tbd", "xxx", "fixme", "because", "why", "temp", "wip", "ok"}
)
_MIN_REASON_LEN = 8


@dataclass(frozen=True)
class Directive:
    """One ``# gbsan: ok(rules) -- reason`` comment."""

    relpath: str
    line: int
    rules: Tuple[str, ...]
    reason: str

    @property
    def has_real_reason(self) -> bool:
        r = self.reason.strip().rstrip(".").lower()
        return len(r) >= _MIN_REASON_LEN and r not in _PLACEHOLDER_REASONS


def collect_directives(source: str, relpath: str) -> List[Directive]:
    """Directives from COMMENT tokens only — docstring examples don't count."""
    out: List[Directive] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover - defensive
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _DIRECTIVE_RE.search(tok.string)
        if m is None:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
        out.append(
            Directive(relpath, tok.start[0], rules, (m.group(2) or "").strip())
        )
    return out


def audit_suppressions(
    directives: Sequence[Directive], raw_findings: Sequence[Finding]
) -> List[Finding]:
    """Rule 4: unknown rules, placeholder reasons, stale directives."""
    live: Dict[Tuple[str, int], Set[str]] = {}
    for f in raw_findings:
        live.setdefault((f.path, f.line), set()).add(f.rule)
    findings: List[Finding] = []
    for d in directives:
        for rule in d.rules:
            if rule not in KNOWN_RULES:
                findings.append(
                    Finding(
                        d.relpath,
                        d.line,
                        "suppression-unknown-rule",
                        f"suppression names unknown rule '{rule}'; it can "
                        "never match a finding",
                        symbol=rule,
                    )
                )
        if not d.has_real_reason:
            findings.append(
                Finding(
                    d.relpath,
                    d.line,
                    "suppression-placeholder-reason",
                    f"suppression reason '{d.reason or '<missing>'}' explains "
                    "nothing; state why the flagged pattern is safe here",
                    symbol=",".join(d.rules),
                )
            )
        for rule in d.rules:
            if rule not in KNOWN_RULES:
                continue
            on_lines = live.get((d.relpath, d.line), set()) | live.get(
                (d.relpath, d.line + 1), set()
            )
            if rule not in on_lines:
                findings.append(
                    Finding(
                        d.relpath,
                        d.line,
                        "suppression-stale",
                        f"suppression of '{rule}' no longer matches any "
                        "finding on this or the next line; delete it so it "
                        "cannot mask a future regression",
                        symbol=rule,
                    )
                )
    return findings
