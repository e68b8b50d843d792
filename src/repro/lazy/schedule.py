"""The lazy tape: recording, forcing, and the optimizing flush.

Vector-valued frontend operations call :func:`emit` with a run closure
over resolved containers; the ops that write through the mask/accumulate
pipeline build that closure in :mod:`repro.lazy.write`.  When recording is
active the call appends a :class:`~repro.lazy.ir.Node` to the process-wide
tape and returns immediately; otherwise the closure executes on the spot —
eager mode is the same code path minus the tape, which is what makes
``policy(lazy="off")`` bit-identical by construction.

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
- explicit :func:`wait`, and entering or leaving every
  :func:`repro.policy.policy` scope.

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
from ..policy import current
from .ir import LazyValue, Node, RunFn

__all__ = [
    "arg",
    "arg_mask",
    "emit",
    "emit_scalar",
    "force",
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
    if _FLUSHING or current().lazy == "off":
        return False
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
        node.outputs = tuple(LazyValue(weakref.ref(o)) for o in outs)
        for o, lv in zip(outs, node.outputs):
            o._lazy = lv
        _TAPE.append(node)
        return outs[0]
    resolved = {k: _concrete(v) for k, v in inputs.items()}
    for o, c in zip(outs, _results(run(resolved, params), len(outs))):
        o._lazy = None
        o._replace(c)
    return outs[0]


def emit_scalar(
    op: str, run: RunFn, inputs: Dict[str, Any], params: Dict[str, Any]
) -> Any:
    """Record a scalar-producing op and force it immediately.

    A reduction's value feeds Python control flow, so it is an observation
    point — but recording it first lets the fusion pass see the reduce
    adjacent to its producer before the flush executes either.  The scalar
    is the node's one output, owned by no handle; forcing it makes it the
    flush's root.
    """
    if recording():
        node = Node(op, run, inputs, params, current_backend())
        node.outputs = (LazyValue(),)
        _TAPE.append(node)
        return force(node.outputs[0])
    resolved = {k: _concrete(v) for k, v in inputs.items()}
    return run(resolved, params)


def _results(r: Any, n: int) -> Tuple[Any, ...]:
    """A run's results in output order (a lone result is not a tuple)."""
    return tuple(r) if n > 1 else (r,)


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
            raise RuntimeError("lazy value not materialised by flush")
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

    Roots: the values that live handles still own, and the explicit force
    target (a scalar reduction's value, or the value a read is waiting
    on).  Every node reachable from them backwards through pending inputs
    is live, a pending input's producer being found through a map of this
    tape's outputs; the rest produced values nobody can ever observe.
    """
    producer = {lv: n for n in tape for lv in n.outputs}
    stack = [n for lv, n in producer.items() if lv is root or lv.handle() is not None]
    live: set[int] = set()
    while stack:
        n = stack.pop()
        if id(n) in live:
            continue
        live.add(id(n))
        for v in n.inputs.values():
            if isinstance(v, LazyValue) and v in producer:
                stack.append(producer[v])
    return [n for n in tape if id(n) in live]


def _flush(tape: List[Node], root: Optional[LazyValue]) -> None:
    from . import capture, passes

    pol = current()
    nodes = _live_nodes(tape, root) if pol.dme else list(tape)
    if not nodes:
        return
    be = nodes[0].backend
    uniform = all(n.backend is be for n in nodes)
    if uniform and pol.fuse:
        nodes = passes.fuse(nodes)
    # Only a backend that opts in via ``lazy_by_default`` records, so a
    # uniform tape belongs to a lazy front-end backend and the device
    # passes run (cuda_sim, and multi_sim on all of its shard devices).
    devices = be.devices() if uniform else []
    if uniform:
        if pol.sink:
            passes.sink(nodes)
        if pol.direction:
            passes.choose_directions(nodes)
        if pol.dme:
            passes.register_iso_hints(nodes, devices)
    if not (uniform and pol.capture):
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
            raise RuntimeError("lazy input consumed before its producer ran")
        return v.container
    return v


def _execute(node: Node) -> None:
    inp = {k: _resolve(v) for k, v in node.inputs.items()}
    r = node.run(inp, node.params)
    for lv, c in zip(node.outputs, _results(r, len(node.outputs))):
        lv.container = c
        handle = lv.handle()
        if handle is not None:
            handle._replace(c)
            handle._lazy = None


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
