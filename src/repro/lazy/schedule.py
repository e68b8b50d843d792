"""The lazy tape: recording, forcing, and the optimizing flush.

Vector-valued frontend operations call :func:`emit` with a run closure
(their original eager body over resolved containers).  When recording is
active the call appends a :class:`~repro.lazy.ir.Node` to the process-wide
tape and returns immediately; otherwise the closure executes on the spot —
eager mode is the same code path minus the tape, which is what makes
``lazy_disabled()`` bit-identical by construction.

Evaluation is forced at *observation points*:

- reading a Vector's container (extract to host, ``to_lists``, equality,
  ``dup`` — anything that needs values);
- a scalar reduction (its value feeds Python control flow immediately);
- mutating any container (``set_element``/``build``/``clear``/``resize``
  would otherwise be reordered against recorded readers);
- ``Device.profiler`` reads and device resets (hooked via
  :func:`repro.gpu.device.set_observe_hook`);
- leaving a ``use_backend`` scope (hooked via
  :func:`repro.backends.dispatch.set_sync_hook`);
- explicit :func:`wait`, and every lazy-config transition.

A flush runs the optimizer over the whole pending tape in program order:
dead-materialization elimination (liveness from the owning handles), fusion,
mask sinking, loop-level direction selection, and whole-loop capture — see
:mod:`repro.lazy.passes` and :mod:`repro.lazy.capture`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple
import weakref

from ..backends.dispatch import current_backend, set_sync_hook
from ..gpu.device import set_observe_hook
from . import config
from .ir import LazyValue, Node, RunFn

__all__ = [
    "arg",
    "arg_mask",
    "emit",
    "emit_scalar",
    "force",
    "out_arg",
    "recording",
    "sync",
    "tape_len",
    "wait",
]

_TAPE: List[Node] = []
_FLUSHING = False


def tape_len() -> int:
    """Number of pending recorded nodes (diagnostics/tests)."""
    return len(_TAPE)


def recording() -> bool:
    """True when frontend ops should record instead of executing."""
    if _FLUSHING:
        return False
    mode = config._FLAGS.mode
    if mode == "off":
        return False
    if mode == "on":
        return True
    return bool(getattr(current_backend(), "lazy_by_default", False))


# ---------------------------------------------------------------------------
# Recording helpers (used by the frontend record sites)
# ---------------------------------------------------------------------------


def arg(v: Any) -> Any:
    """A handle's recorded form: its pending LazyValue, else its container."""
    lv = getattr(v, "_lazy", None)
    if lv is not None:
        return lv
    return v._container


def arg_mask(mask: Any) -> Any:
    """``arg`` for an optional mask handle."""
    if mask is None:
        return None
    return arg(mask)


def out_arg(v: Any, mask: Any, accum: Any) -> Any:
    """The recorded form of an op's output operand.

    With no mask and no accumulator the merge pipeline's result is
    independent of the output's prior *values* (a trivial merge replaces
    them wholesale), so the current concrete container is recorded instead
    of the pending value — severing the dependence edge on the previous
    producer is what lets dead-materialization elimination drop overwritten
    temporaries.  Size and type are the only properties the merge reads,
    and both are invariant under replacement.
    """
    if mask is None and accum is None:
        return v._container
    return arg(v)


def emit(
    op: str,
    run: RunFn,
    inputs: Dict[str, Any],
    params: Dict[str, Any],
    outs: Tuple[Any, ...],
) -> Any:
    """Record one op (lazy) or execute its run closure now (eager).

    Returns the first output handle, matching the frontend convention of
    returning ``out`` for chaining.
    """
    if recording():
        node = Node(op, run, inputs, params, current_backend())
        lvs = []
        for o in outs:
            lv = LazyValue(node, weakref.ref(o))
            o._lazy = lv
            lvs.append(lv)
        node.outputs = tuple(lvs)
        _TAPE.append(node)
        return outs[0]
    resolved = {k: _concrete(v) for k, v in inputs.items()}
    r = run(resolved, params)
    results = r if len(outs) > 1 else (r,)
    for o, c in zip(outs, results):
        o._lazy = None
        o._replace(c)
    return outs[0]


def emit_scalar(
    op: str, run: RunFn, inputs: Dict[str, Any], params: Dict[str, Any]
) -> Any:
    """Record a scalar-producing op and force it immediately.

    A reduction's value feeds Python control flow, so it is an observation
    point — but recording it first lets the fusion pass see the reduce
    adjacent to its producer before the flush executes either.
    """
    if recording():
        node = Node(op, run, inputs, params, current_backend(), scalar=True)
        _TAPE.append(node)
        sync()
        return node.value
    resolved = {k: _concrete(v) for k, v in inputs.items()}
    return run(resolved, params)


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------


def _concrete(v: Any) -> Any:
    if isinstance(v, LazyValue):
        return force(v)
    return v


def force(lv: LazyValue) -> Any:
    """Materialise one pending value (flushes the whole tape)."""
    if lv.container is None:
        sync(root=lv)
        if lv.container is None:  # pragma: no cover - scheduling invariant
            raise RuntimeError(
                f"lazy value for {lv.node.op} not materialised by flush"
            )
    return lv.container


def sync(root: Optional[LazyValue] = None) -> None:
    """Force the whole pending tape in program order (reentrancy-guarded)."""
    global _FLUSHING
    if _FLUSHING or not _TAPE:
        return
    _FLUSHING = True
    try:
        while _TAPE:
            tape = _TAPE[:]
            del _TAPE[:]
            _flush(tape, root)
    finally:
        _FLUSHING = False


def wait() -> None:
    """Explicit barrier: force pending work, close open capture aggregates."""
    sync()
    from . import capture

    capture.close()


# ---------------------------------------------------------------------------
# Flush: liveness -> passes -> execution
# ---------------------------------------------------------------------------


def _live_nodes(tape: List[Node], root: Optional[LazyValue]) -> List[Node]:
    """Program-ordered live subset of the tape (dead-materialization cut).

    Roots: scalar nodes (their value is being waited on), outputs that are
    still the current value of a live handle, and the explicit force
    target.  Everything reachable backwards through pending inputs is live;
    the rest produced values nobody can ever observe.
    """
    live: set = set()

    def mark(node: Node) -> None:
        stack = [node]
        while stack:
            n = stack.pop()
            if id(n) in live or n.done:
                continue
            live.add(id(n))
            for v in n.inputs.values():
                if isinstance(v, LazyValue) and v.container is None:
                    stack.append(v.node)

    for node in tape:
        if node.scalar:
            mark(node)
            continue
        for lv in node.outputs:
            owner = lv.owner() if lv.owner is not None else None
            if owner is not None and getattr(owner, "_lazy", None) is lv:
                mark(node)
                break
    if root is not None and root.container is None:
        mark(root.node)
    return [n for n in tape if id(n) in live]


def _flush(tape: List[Node], root: Optional[LazyValue]) -> None:
    from . import capture, passes

    flags = config._FLAGS
    nodes = _live_nodes(tape, root) if flags.dme else list(tape)
    if not nodes:
        return
    be = nodes[0].backend
    uniform = all(n.backend is be for n in nodes)
    if uniform and flags.fuse:
        nodes = passes.fuse(nodes)
    # The device passes run for a lazy front-end backend (cuda_sim, and
    # multi_sim on all of its shard devices).
    lazy_be = uniform and bool(getattr(be, "lazy_by_default", False))
    devices = be.devices() if lazy_be else []
    if lazy_be:
        if flags.sink:
            passes.sink(nodes)
        if flags.direction:
            passes.choose_directions(nodes)
        if flags.dme:
            passes.register_iso_hints(nodes, devices)
    if not (lazy_be and flags.capture):
        for node in nodes:
            _execute(node)
        return
    aggs = capture.enter(nodes, devices)
    prev = [dev.active_graph for dev in devices]
    for dev, agg in zip(devices, aggs):
        dev.active_graph = agg
    try:
        for node in nodes:
            _execute(node)
    finally:
        for dev, graph in zip(devices, prev):
            dev.active_graph = graph


def _resolve(v: Any) -> Any:
    if isinstance(v, LazyValue):
        if v.container is None:  # pragma: no cover - scheduling invariant
            raise RuntimeError(
                f"input from {v.node.op} consumed before its producer ran"
            )
        return v.container
    return v


def _execute(node: Node) -> None:
    inp = {k: _resolve(v) for k, v in node.inputs.items()}
    r = node.run(inp, node.params)
    outs = node.outputs
    if node.scalar:
        if outs:
            containers = list(r[:-1])
            node.value = r[-1]
        else:
            node.value = r
            containers = []
    elif len(outs) > 1:
        containers = list(r)
    else:
        containers = [r]
    for lv, c in zip(outs, containers):
        lv.container = c
        owner = lv.owner() if lv.owner is not None else None
        if owner is not None and getattr(owner, "_lazy", None) is lv:
            owner._replace(c)
            owner._lazy = None
    node.done = True


# ---------------------------------------------------------------------------
# Observation hooks (device + dispatch integration)
# ---------------------------------------------------------------------------


def _observe(event: str, dev: Any) -> None:
    from . import capture

    sync()
    if event == "reset":
        # A device reset abandons the measurement: pending semantics ran
        # (the handles stay valid) into the profiler that is about to be
        # wiped; the device's capture state is dropped with it.
        capture.discard(dev)
        return
    capture.close()


set_observe_hook(_observe)
set_sync_hook(wait)
