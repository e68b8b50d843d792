"""Automatic whole-loop capture for lazily flushed kernel sequences.

Iterative algorithms (BFS, PageRank, delta-stepping) flush an identical
node sequence every iteration.  The flush computes a structural
*signature* of each tape it executes and enters one :class:`LoopAgg` per
device of the flushing backend:

- the first time a signature is seen on a device, the flush executes and
  charges normally (the capture iteration);
- every later occurrence runs its launches through the aggregate —
  semantics execute as always, each launch's busy time lands on the device
  clock at once, but the launch overhead and the profiler record are
  deferred and *accumulated across iterations*.  When the loop ends (a
  policy scope, a profiler read, a ``use_backend`` exit — any
  :func:`repro.lazy.schedule.wait`), one ``graph_replay[lazy:<name>]``
  record is emitted carrying a single launch overhead plus the summed busy
  times of every member kernel.

Capture removes launch overhead only, never compute: because busy time is
charged when the launch runs, a cluster barrier or collective issued later
in the same flush sees every device's compute on its clock.

Signatures are structural: op names, input arities, operator/monoid names
and descriptor flags — never data values, so a BFS frontier changing size
or a PageRank residual shrinking does not break the match, while a
push→pull flip (different params) correctly re-captures.

State is held per :class:`~repro.gpu.device.Device` in a weak-key map, so
the P devices of a multi-device backend capture and replay their
shard-local launch sequences independently (P concurrent CUDA Graphs), and
a device reset abandons its stale captures with it.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from ..gpu.costmodel import KernelWork
from ..gpu.profiler import LaunchRecord
from .ir import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.device import Device

__all__ = ["LoopAgg", "REPLAY_PREFIX", "close", "discard", "enter", "signature"]

REPLAY_PREFIX = "graph_replay["
LAZY_REPLAY_PREFIX = REPLAY_PREFIX + "lazy:"


class LoopAgg:
    """One flush signature on one device: its capture, then its replays.

    Installed as ``device.active_graph`` while a flush of the signature
    executes (see ``repro.gpu.kernel.launch``).  During the capture flush
    :meth:`on_launch` returns False and launches charge normally; once
    ``replaying``, it charges each launch's busy time to the clock, returns
    True, and :meth:`commit` later emits one aggregated record (plus the
    single launch overhead) for *all* accumulated iterations, listing each
    launch under the label its plain record would carry (``name[lane]``).

    A replay is only valid while the device buffers bound at capture are
    still the ones in use: when the device counts a rebind (a re-upload
    after a host write, or after eviction), the loop is re-instantiated —
    its accumulated replays commit and the flush charges as a new capture.
    """

    __slots__ = ("name", "replaying", "rebinds", "_start", "_pending")

    def __init__(self, name: str, rebinds: int) -> None:
        self.name = name
        self.replaying = False
        # The device's rebind count when the current capture began; it
        # identifies the capture (it changes on every re-instantiation).
        self.rebinds = rebinds
        self._start = 0.0
        self._pending: List[Tuple[str, float, KernelWork]] = []

    def on_launch(self, name: str, work: KernelWork, dev: "Device") -> bool:
        if self.replaying and dev.rebinds != self.rebinds:
            # Re-instantiate.  The stamp is taken before the capture reads
            # anything, so a rebind later in the capture also re-captures.
            self.commit(dev)
            self.replaying = False
            self.rebinds = dev.rebinds
        if not self.replaying:
            return False
        busy = max(
            dev.cost_model.kernel_time_us(work) - dev.props.launch_overhead_us, 0.0
        )
        if not self._pending:
            self._start = dev.clock_us
        dev.advance(busy)
        self._pending.append((name, busy, work))
        return True

    def commit(self, dev: "Device") -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        overhead = dev.props.launch_overhead_us
        dev.advance(overhead)
        dev._profiler.record(
            LaunchRecord(
                name=f"{LAZY_REPLAY_PREFIX}{self.name}]",
                kind="kernel",
                start_us=self._start,
                duration_us=overhead + sum(busy for _, busy, _ in pending),
                flops=sum(w.flops for _, _, w in pending),
                bytes=sum(w.bytes_total for _, _, w in pending),
                threads=max(w.threads for _, _, w in pending),
                members=tuple(
                    (name, busy, w.flops, w.bytes_total)
                    for name, busy, w in pending
                ),
            )
        )


class _State:
    """Per-device capture bookkeeping."""

    __slots__ = ("loops", "open")

    def __init__(self) -> None:
        # signature -> its aggregate (first occurrence captured plainly).
        self.loops: Dict[Tuple[Any, ...], LoopAgg] = {}
        # signature -> aggregate holding uncommitted replays.
        self.open: Dict[Tuple[Any, ...], LoopAgg] = {}


_STATES: "weakref.WeakKeyDictionary[Any, _State]" = weakref.WeakKeyDictionary()


def _token(v: Any) -> Any:
    """A value's structural identity for signature purposes.

    Operator-like objects contribute their name, descriptors their flags;
    raw data (ints, floats, arrays — BFS depth, PageRank teleport mass)
    contributes only its *type* so per-iteration value changes do not
    break the loop match.
    """
    if v is None or isinstance(v, (bool, str)):
        return v
    name = getattr(v, "name", None)
    if isinstance(name, str):
        return name
    if hasattr(v, "complement_mask"):
        return (
            "desc",
            v.transpose_a,
            v.transpose_b,
            v.complement_mask,
            v.structural_mask,
            v.replace,
        )
    return type(v).__name__


def _node_sig(node: Node) -> Tuple[Any, ...]:
    keys = tuple(sorted(k for k, v in node.inputs.items() if v is not None))
    params = tuple(sorted((k, _token(v)) for k, v in node.params.items()))
    return (node.op, keys, params)


def signature(nodes: List[Node]) -> Tuple[Any, ...]:
    """Structural signature of one flushed tape."""
    return tuple(_node_sig(n) for n in nodes)


def enter(nodes: List[Node], devices: Sequence["Device"]) -> List[LoopAgg]:
    """The aggregate of this flush's signature on each of ``devices``.

    A signature's first flush on a device is its capture; every later one
    replays into the aggregate, which stays open until :func:`close`.
    """
    sig = signature(nodes)
    aggs: List[LoopAgg] = []
    for dev in devices:
        state = _STATES.get(dev)
        if state is None:
            state = _STATES[dev] = _State()
        agg = state.loops.get(sig)
        if agg is None:
            agg = LoopAgg(f"{nodes[0].op}x{len(nodes)}", dev.rebinds)
            state.loops[sig] = agg
        else:
            agg.replaying = True
            state.open[sig] = agg
        aggs.append(agg)
    return aggs


def close() -> None:
    """Commit every open aggregate on every device (loop-exit barrier)."""
    for dev, state in list(_STATES.items()):
        if not state.open:
            continue
        open_aggs, state.open = state.open, {}
        for agg in open_aggs.values():
            agg.commit(dev)


def discard(dev: "Device") -> None:
    """Drop one device's capture state without charging (device reset)."""
    _STATES.pop(dev, None)
