"""Lazy expression IR: op nodes and the values that flow between them.

Frontend calls on vector-valued operations record a :class:`Node` instead
of executing; the node bundles the op's *run closure* (the original eager
body, operating on resolved containers) with its inputs and the parameters
the optimizer passes inspect.  A :class:`LazyValue` is one pending output:
a weak reference to the Vector handle it was recorded into (liveness: a
value whose handle died or moved on is a dead materialization) and, once
the flush executed its node, the result.  A scalar reduction's result is
an output like any other, with no owner.

The IR is forward-only: a node points at its input and output values, and
a value points at nothing but its owner, so a flushed tape is freed by
reference counting.  It is deliberately flat: a flush is a program-ordered
tape of nodes, and every pass (fusion, dead-materialization elimination,
mask sinking, direction selection, loop capture) is a linear walk over
that tape.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["LazyValue", "Node", "RunFn"]

#: A node's run closure: ``run(resolved_inputs, params) -> result(s)``.
#: A node with several outputs returns a tuple of results in output order.
RunFn = Callable[[Dict[str, Any], Dict[str, Any]], Any]


class Node:
    """One recorded operation on the lazy tape."""

    __slots__ = ("op", "run", "inputs", "params", "backend", "outputs")

    def __init__(
        self,
        op: str,
        run: RunFn,
        inputs: Dict[str, Any],
        params: Dict[str, Any],
        backend: Any,
    ) -> None:
        self.op = op
        self.run = run
        # name -> LazyValue (pending), container (concrete), or None.
        self.inputs = inputs
        self.params = params
        self.backend = backend
        self.outputs: Tuple["LazyValue", ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.op}>"


class LazyValue:
    """One pending op output, owned (weakly) by a Vector handle, if any."""

    __slots__ = ("owner", "container")

    def __init__(self, owner: Optional["weakref.ref[Any]"] = None) -> None:
        self.owner = owner
        self.container: Any = None

    def handle(self) -> Any:
        """The live handle whose pending value this still is, else None."""
        h = self.owner() if self.owner is not None else None
        return h if h is not None and getattr(h, "_lazy", None) is self else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ready" if self.container is not None else "pending"
        return f"<LazyValue {state}>"
