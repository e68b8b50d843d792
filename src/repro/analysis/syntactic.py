"""gbcheck's syntactic rules: kernel contracts enforced at the AST.

The dataflow rules (:mod:`repro.analysis.rules`) follow effects through the
call graph; these six rules need only one module's syntax tree:

``kernel-decl``
    Every :class:`~repro.gpu.kernel.Kernel` instantiated under
    ``repro/backends/`` or ``repro/lazy/`` must declare its access sets
    (the ``accesses=`` argument, or a fourth positional) — otherwise the
    dynamic checkers are blind to its launches.

``fused-kernel-decl``
    Anywhere in the tree, a ``Kernel`` whose name contains ``fused`` must
    declare ``accesses=``.  Fused kernels are *emitted by the optimizer*
    (the lazy pass pipeline rewrites tapes to launch them), so an
    undeclared one would silently skip the residency checks exactly
    on the launches the optimizer invented.

``container-mutation``
    No direct stores into container payload arrays (``.values``,
    ``.indices``, ``.indptr``, ``.data``) in backends, algorithms, or core.
    Payload mutation outside a declared kernel bypasses the version counter
    (dirty bit) and therefore residency tracking.

``argsort``
    No ``argsort`` calls on hot paths (backends, algorithms): the sort-free
    kernels replaced comparison sorts with counting sort/segment tricks,
    and an ``argsort`` that sneaks back in silently reverts that.

``uncharged-numpy``
    The device orchestrators (``backends/cuda_sim/backend.py``,
    ``backends/multi_sim/backend.py``) may not call heavy NumPy routines
    outside kernel semantics — host work there is real compute the cost
    model never charges.

``unused-import``
    Every name a module-level import binds (directly, or under a
    module-level ``if``/``try``) is read somewhere in the module, in a
    string annotation, or listed in ``__all__``.  Package ``__init__.py``
    files (whose imports are the package surface) and ``from __future__``
    are exempt; a name other modules import from this one belongs in its
    ``__all__``.

The visitor reports raw findings; :mod:`repro.analysis.engine` applies the
``# gbsan: ok(rule) -- reason`` directives after auditing them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set, Union

from .findings import Finding
from .summaries import PAYLOAD_ATTRS

__all__ = ["SyntacticVisitor", "rules_for"]

#: NumPy routines that are real compute when they appear in an orchestrator.
_HEAVY_NUMPY = frozenset(
    {
        "sort",
        "argsort",
        "lexsort",
        "searchsorted",
        "unique",
        "bincount",
        "cumsum",
        "einsum",
        "dot",
        "matmul",
        "tensordot",
    }
)

#: Files whose module-level code *is* the device orchestrator.
_ORCHESTRATORS = (
    "backends/cuda_sim/backend.py",
    "backends/multi_sim/backend.py",
)


def rules_for(relpath: str) -> Set[str]:
    """The syntactic rules applying to one ``repro/``-rooted path."""
    rules: Set[str] = {"fused-kernel-decl"}
    if relpath.startswith("backends/"):
        rules |= {"kernel-decl", "container-mutation", "argsort"}
    if relpath.startswith("lazy/"):
        # The optimizer rewrites tapes and may synthesize kernels; it is
        # hot-path device code and held to the backend rules.
        rules |= {"kernel-decl", "container-mutation", "argsort"}
    if relpath.startswith("algorithms/"):
        rules |= {"container-mutation", "argsort"}
    if relpath.startswith("core/"):
        rules |= {"container-mutation"}
    if relpath in _ORCHESTRATORS:
        rules |= {"uncharged-numpy"}
    if relpath.rsplit("/", 1)[-1] != "__init__.py":
        rules |= {"unused-import"}
    return rules


def _module_imports(
    body: List[ast.stmt],
) -> Iterator[Union[ast.Import, ast.ImportFrom]]:
    """Import statements at module level, descending into ``if``/``try``."""
    for stmt in body:
        if isinstance(stmt, ast.Import) or (
            isinstance(stmt, ast.ImportFrom)
            and stmt.module != "__future__"
            and stmt.names[0].name != "*"
        ):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            handlers = [s for h in getattr(stmt, "handlers", ()) for s in h.body]
            yield from _module_imports(
                stmt.body + handlers + stmt.orelse + getattr(stmt, "finalbody", [])
            )


def _strings(node: ast.AST) -> Iterator[str]:
    for c in ast.walk(node):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            yield c.value


def _names_read(module: ast.Module) -> Set[str]:
    """Names the module reads: loads, string annotations and ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_strings(node.value))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for text in _strings(ann) if ann is not None else ():
                try:
                    parsed = ast.parse(text, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


class SyntacticVisitor(ast.NodeVisitor):
    """Collects raw (pre-suppression) syntactic findings for one module."""

    def __init__(self, relpath: str, rules: Set[str]) -> None:
        self.relpath = relpath
        self.rules = rules
        self.raw: List[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.rules:
            self.raw.append(
                Finding(self.relpath, getattr(node, "lineno", 0), rule, message)
            )

    # -- unused-import --------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        if "unused-import" in self.rules:
            used = _names_read(node)
            for stmt in _module_imports(node.body):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        self._flag(
                            stmt,
                            "unused-import",
                            f"'{bound}' is imported but never used; delete "
                            "it, or list it in __all__ if other modules "
                            "import it from here",
                        )
        self.generic_visit(node)

    # -- kernel-decl ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = self._call_name(node)
        if name == "Kernel":
            has_accesses = len(node.args) >= 4 or any(
                kw.arg == "accesses" for kw in node.keywords
            )
            if not has_accesses:
                self._flag(
                    node,
                    "kernel-decl",
                    "Kernel(...) without an accesses= declaration; the "
                    "sanitizer cannot check launches of an undeclared kernel",
                )
                if self._kernel_name_is_fused(node):
                    self._flag(
                        node,
                        "fused-kernel-decl",
                        "optimizer-emitted fused kernel without accesses=; "
                        "gbsan would skip exactly the launches the lazy "
                        "pass pipeline synthesizes",
                    )
        if name == "argsort" or self._is_np_call(node, {"argsort"}):
            self._flag(
                node,
                "argsort",
                "argsort on a hot path; use counting sort / segment "
                "reduction (see backends/cpu sort-free kernels)",
            )
        elif self._is_np_call(node, _HEAVY_NUMPY) or (
            "uncharged-numpy" in self.rules
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _HEAVY_NUMPY
            and not isinstance(node.func.value, ast.Name)
        ):
            self._flag(
                node,
                "uncharged-numpy",
                f"heavy NumPy call ({self._call_name(node)}) in a device "
                "orchestrator; host work here is compute the cost model "
                "never charges — move it into a kernel semantic or charge it",
            )
        self.generic_visit(node)

    @staticmethod
    def _kernel_name_is_fused(node: ast.Call) -> bool:
        if not node.args:
            return False
        first = node.args[0]
        return (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and "fused" in first.value
        )

    @staticmethod
    def _call_name(node: ast.Call) -> str:
        f = node.func
        if isinstance(f, ast.Name):
            return f.id
        if isinstance(f, ast.Attribute):
            return f.attr
        return ""

    @staticmethod
    def _is_np_call(node: ast.Call, names: Iterable[str]) -> bool:
        f = node.func
        return (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
            and f.attr in names
        )

    # -- container-mutation ---------------------------------------------

    def _check_store_target(self, target: ast.expr) -> None:
        # X.values = ..., X.values[k] = ..., X.values[a:b] = ...
        attr: ast.expr = target
        if isinstance(attr, ast.Subscript):
            attr = attr.value
        if isinstance(attr, ast.Attribute) and attr.attr in PAYLOAD_ATTRS:
            self._flag(
                target,
                "container-mutation",
                f"direct store into container payload .{attr.attr} outside "
                "a declared kernel; this bypasses the version counter "
                "(dirty bit) and residency tracking",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            for el in ast.walk(t) if isinstance(t, (ast.Tuple, ast.List)) else (t,):
                if isinstance(el, (ast.Attribute, ast.Subscript)):
                    self._check_store_target(el)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store_target(node.target)
        self.generic_visit(node)
