"""Per-function summaries: payload effects, bumps, forcing points, calls.

A :class:`FunctionSummary` records what one function does to container
payload state, extracted from its AST in a single pass:

* ``payload_reads`` / ``payload_writes`` — names (params or locals) whose
  payload arrays (``.values``/``.indices``/``.indptr``/``.data``) are read
  or stored through, plus reads implied by container methods such as
  ``cached_transpose`` or ``row_degrees``.
* ``stores`` / ``bumps`` — ordered events for the version-bump rule: a
  payload store must be followed by ``bump_version``/``install_arrays`` on
  the same base before the function returns.
* ``forcing_lines`` / ``observations`` — events for the forcing-point rule:
  reads of raw container state (``._container``, ``install_arrays``) must be
  dominated by a force/sync/settle.
* ``calls`` — resolvable call sites with name-mapped arguments, which the
  interprocedural fixpoint (:func:`propagate_effects`) uses to push callee
  effects back into callers.

Locals are classified: *fresh* (bound from a constructor/function call —
stores into them precede the container's first version and need no bump),
*param aliases*, or *external* (bound from attribute loads — these hold
live containers and are held to the same rules as params).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .loader import Module, Program

__all__ = [
    "PAYLOAD_ATTRS",
    "CONTAINER_READ_METHODS",
    "BUMP_METHODS",
    "FORCING_CALLS",
    "FORCING_NAMES",
    "FORCING_PROPERTIES",
    "CallEvent",
    "FunctionSummary",
    "summarize_function",
    "summarize_lambda",
    "build_summaries",
    "propagate_effects",
]

#: Container payload attributes: no code outside a kernel may store through
#: them (the syntactic ``container-mutation`` rule reads this set too).
PAYLOAD_ATTRS = frozenset({"values", "indices", "indptr", "data"})

#: Container methods whose call implies reading the payload arrays.
CONTAINER_READ_METHODS = frozenset(
    {
        "cached_transpose",
        "transpose",
        "row_degrees",
        "row_ids",
        "flat_keys",
        "in_degrees",
        "row_nnz_max",
        "row",
        "get",
        "to_coo",
        "nnz_per_row",
    }
)

#: Methods that advance the container version (discharge a payload store).
BUMP_METHODS = frozenset({"bump_version", "install_arrays"})

#: Method calls that force/settle pending lazy state before host observation.
FORCING_CALLS = frozenset(
    {
        "_settle",
        "_force",
        "indices_array",
        "values_array",
        "to_dense",
        "to_lists",
        "to_coo",
        "compact",
        "snapshot",
    }
)

#: Free functions from repro.lazy.schedule that force.
FORCING_NAMES = frozenset({"force", "sync", "wait"})

#: Property loads that force (Vector.container / Matrix.container).
FORCING_PROPERTIES = frozenset({"container"})


@dataclass(frozen=True)
class CallEvent:
    """One call site, with Name-valued arguments mapped for propagation."""

    line: int
    func: str  # bare name for Name calls, attr for method calls
    is_method: bool
    args: Tuple[Optional[str], ...]  # Name args by position, else None
    keywords: Tuple[Tuple[str, Optional[str]], ...]


@dataclass
class FunctionSummary:
    relpath: str
    qualname: str
    params: List[str] = field(default_factory=list)
    payload_reads: Set[str] = field(default_factory=set)
    payload_writes: Set[str] = field(default_factory=set)
    stores: List[Tuple[str, int]] = field(default_factory=list)
    bumps: List[Tuple[str, int]] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    forcing_lines: List[int] = field(default_factory=list)
    observations: List[Tuple[str, int]] = field(default_factory=list)
    fresh: Set[str] = field(default_factory=set)
    param_alias: Dict[str, str] = field(default_factory=dict)
    #: Params stored-through without a later bump (filled by the fixpoint).
    unbumped_params: Set[str] = field(default_factory=set)

    def root_param(self, name: str) -> Optional[str]:
        """Resolve a name to the param it aliases, if any."""
        seen = 0
        while name in self.param_alias and seen < 8:
            name = self.param_alias[name]
            seen += 1
        return name if name in self.params else None

    def is_fresh(self, name: str) -> bool:
        return name in self.fresh and self.root_param(name) is None

    def forced_before(self, line: int) -> bool:
        return any(fl < line for fl in self.forcing_lines)


class _Extractor(ast.NodeVisitor):
    """Single-pass effect extraction for one function body."""

    def __init__(self, summary: FunctionSummary) -> None:
        self.s = summary

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _root_name(expr: ast.expr) -> Optional[str]:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def _mark_store(self, target: ast.expr, line: int) -> None:
        attr: ast.expr = target
        if isinstance(attr, ast.Subscript):
            attr = attr.value
        if isinstance(attr, ast.Attribute) and attr.attr in PAYLOAD_ATTRS:
            base = self._root_name(attr.value)
            if base is not None:
                self.s.payload_writes.add(base)
                self.s.stores.append((base, line))

    def _classify_binding(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            self.s.fresh.add(name)
        elif isinstance(value, ast.Name):
            self.s.param_alias[name] = value.id

    # -- statements ------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            elems = ast.walk(t) if isinstance(t, (ast.Tuple, ast.List)) else iter((t,))
            for el in elems:
                if isinstance(el, (ast.Attribute, ast.Subscript)):
                    self._mark_store(el, node.lineno)
            if isinstance(t, ast.Name):
                self._classify_binding(t.id, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mark_store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if isinstance(node.target, (ast.Attribute, ast.Subscript)):
                self._mark_store(node.target, node.lineno)
            if isinstance(node.target, ast.Name):
                self._classify_binding(node.target.id, node.value)
        self.generic_visit(node)

    # -- expressions -----------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.attr in PAYLOAD_ATTRS:
                base = self._root_name(node.value)
                if base is not None:
                    self.s.payload_reads.add(base)
            if node.attr in FORCING_PROPERTIES:
                self.s.forcing_lines.append(node.lineno)
            if node.attr == "_container":
                self.s.observations.append(("_container", node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Attribute):
            base = self._root_name(f.value)
            if f.attr in BUMP_METHODS and base is not None:
                self.s.bumps.append((base, node.lineno))
            if f.attr == "install_arrays":
                self.s.observations.append(("install_arrays", node.lineno))
            if f.attr in CONTAINER_READ_METHODS and base is not None:
                self.s.payload_reads.add(base)
            if f.attr in FORCING_CALLS:
                self.s.forcing_lines.append(node.lineno)
            self.s.calls.append(self._call_event(node, f.attr, True))
        elif isinstance(f, ast.Name):
            if f.id in FORCING_NAMES:
                self.s.forcing_lines.append(node.lineno)
            self.s.calls.append(self._call_event(node, f.id, False))
        self.generic_visit(node)

    def _call_event(self, node: ast.Call, func: str, is_method: bool) -> CallEvent:
        args = tuple(a.id if isinstance(a, ast.Name) else None for a in node.args)
        kws = tuple(
            (kw.arg, kw.value.id if isinstance(kw.value, ast.Name) else None)
            for kw in node.keywords
            if kw.arg is not None
        )
        return CallEvent(node.lineno, func, is_method, args, kws)


def _params_of(args: ast.arguments) -> List[str]:
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def summarize_function(
    relpath: str, qualname: str, node: ast.FunctionDef
) -> FunctionSummary:
    s = FunctionSummary(relpath=relpath, qualname=qualname, params=_params_of(node.args))
    ex = _Extractor(s)
    for stmt in node.body:
        ex.visit(stmt)
    return s


def summarize_lambda(relpath: str, qualname: str, node: ast.Lambda) -> FunctionSummary:
    s = FunctionSummary(relpath=relpath, qualname=qualname, params=_params_of(node.args))
    _Extractor(s).visit(node.body)
    return s


SummaryKey = Tuple[str, str]  # (relpath, qualname)


def build_summaries(program: Program) -> Dict[SummaryKey, FunctionSummary]:
    out: Dict[SummaryKey, FunctionSummary] = {}
    for mod in program.modules.values():
        for qualname, fn in mod.functions.items():
            out[(mod.relpath, qualname)] = summarize_function(mod.relpath, qualname, fn)
    return out


def _resolve_callee(
    program: Program, module: Module, event: CallEvent
) -> Optional[SummaryKey]:
    if event.is_method:
        return None
    resolved = program.resolve_function(module, event.func)
    if resolved is None:
        return None
    rmod, rqual = resolved
    return (rmod.relpath, rqual)


def propagate_effects(
    program: Program, summaries: Dict[SummaryKey, FunctionSummary], rounds: int = 6
) -> None:
    """Push callee payload reads/writes back through Name-valued arguments.

    Object-insensitive and flow-insensitive by design: if ``f(c)`` passes a
    caller name to a callee that reads/writes that positional param's
    payload, the caller inherits the effect on ``c``.  Iterated to a
    fixpoint so effects flow through helper chains of any depth.
    """
    for _ in range(rounds):
        changed = False
        for mod in program.modules.values():
            for qualname in mod.functions:
                s = summaries[(mod.relpath, qualname)]
                for ev in s.calls:
                    key = _resolve_callee(program, mod, ev)
                    if key is None or key not in summaries:
                        continue
                    callee = summaries[key]
                    for pos, argname in enumerate(ev.args):
                        if argname is None or pos >= len(callee.params):
                            continue
                        p = callee.params[pos]
                        if p in callee.payload_reads and argname not in s.payload_reads:
                            s.payload_reads.add(argname)
                            changed = True
                        if p in callee.payload_writes and argname not in s.payload_writes:
                            s.payload_writes.add(argname)
                            changed = True
                    for kwname, argname in ev.keywords:
                        if argname is None or kwname not in callee.params:
                            continue
                        if kwname in callee.payload_reads and argname not in s.payload_reads:
                            s.payload_reads.add(argname)
                            changed = True
                        if kwname in callee.payload_writes and argname not in s.payload_writes:
                            s.payload_writes.add(argname)
                            changed = True
        if not changed:
            break
