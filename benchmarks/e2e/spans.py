"""Host-time spans around the library's layers, installed from outside.

A :class:`Tracer` wraps a fixed set of public functions (the wrap points in
:data:`WRAP_POINTS`) without editing the library: every module attribute
under ``repro`` that *is* one of those functions is replaced by a wrapper,
so ``from x import f`` bindings are covered as well as ``module.f`` lookups,
and class attributes are replaced on the class.  :meth:`Tracer.uninstall`
puts every original object back and checks that it is ``is``-identical.

Each span records ``[name, start, end, parent index, op id, wrap point]``
in one in-memory list.  A span's self time is its duration minus the durations of
its direct children; time inside an op that no span covers is ``other``
(the ``core`` frontend, dispatch and containers).  Spans are written out
only when the benchmark ends, as Chrome trace-event JSON that Perfetto and
``about:tracing`` load.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from catalog import SPANS

# span name -> (module, dotted attribute) of every function it wraps.
WRAP_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "serve.submit": (("repro.serve.service", "GraphService.submit"),),
    "serve.coalesce": (
        ("repro.serve.coalescer", "Coalescer.add"),
        ("repro.serve.coalescer", "Coalescer.drain"),
    ),
    "serve.execute": (("repro.serve.engine", "ExecutionEngine.execute"),),
    "streaming.apply": (("repro.streaming.graph", "DynamicGraph.apply"),),
    "streaming.compact": (("repro.streaming.graph", "DynamicGraph.compact"),),
    "streaming.query": (
        ("repro.streaming.incremental", "IncrementalBFS.query"),
        ("repro.streaming.incremental", "IncrementalCC.query"),
    ),
    "algorithms.call": (
        ("repro.algorithms.pagerank", "pagerank"),
        ("repro.algorithms.bfs", "bfs_levels"),
        ("repro.algorithms.msbfs", "bfs_levels_multi"),
        ("repro.algorithms.ppr", "ppr_batch"),
        ("repro.algorithms.components", "connected_components"),
    ),
    "lazy.flush": (("repro.lazy.schedule", "sync"),),
    "lazy.passes": (
        ("repro.lazy.passes", "fuse"),
        ("repro.lazy.passes", "sink"),
        ("repro.lazy.passes", "choose_directions"),
        ("repro.lazy.passes", "register_iso_hints"),
    ),
    "lazy.capture": (("repro.lazy.capture", "enter"),),
    "gpu.launch": (("repro.gpu.kernel", "launch"),),
    "gpu.transfer": (("repro.gpu.kernel", "charge_transfer"),),
    "gpu.costmodel": (
        ("repro.gpu.costmodel", "CostModel.kernel_time_us"),
        ("repro.gpu.costmodel", "CostModel.transfer_time_us"),
        ("repro.gpu.loadbalance", "choose_lanes"),
        ("repro.gpu.loadbalance", "schedule"),
    ),
    # backends.numerics is computed: see numerics_points().
    "distributed.comm": (
        ("repro.distributed.cluster", "SimCluster.barrier"),
        ("repro.distributed.cluster", "SimCluster.charge_comm"),
        ("repro.distributed.comm", "CommModel.allgather"),
    ),
}

# Modules whose bindings of cpu-backend functions are the host numerics the
# simulated backends run (the cpu backend itself is the oracle's path).
NUMERICS_MODULES = (
    "repro.backends.cuda_sim.kernels",
    "repro.backends.cuda_sim.backend",
    "repro.backends.multi_sim.kernels",
    "repro.backends.multi_sim.backend",
    "repro.backends.cpu.backend",
)
CPU_PREFIX = "repro.backends.cpu."


def numerics_points() -> Tuple[Tuple[str, str], ...]:
    """Every cpu-kernel function bound at module level in NUMERICS_MODULES."""
    points = []
    seen = set()
    for modname in NUMERICS_MODULES:
        mod = importlib.import_module(modname)
        for attr, val in sorted(vars(mod).items()):
            if (
                callable(val)
                and getattr(val, "__module__", "").startswith(CPU_PREFIX)
                and not isinstance(val, type)
                and id(val) not in seen
            ):
                seen.add(id(val))
                points.append((val.__module__, val.__qualname__))
    return tuple(points)


def _resolve(modname: str, dotted: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module:dotted``."""
    owner: Any = importlib.import_module(modname)
    parts = dotted.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], vars(owner)[parts[-1]]


class Patcher:
    """Replaces objects at every binding and puts the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace_everywhere(self, original: Any, replacement: Any) -> int:
        """Rebind every ``repro*`` module attribute that is ``original``."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        return hits

    def replace_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every replacement (last first) and verify identity."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} not restored")


def wrap_point(patcher: Patcher, modname: str, dotted: str, make: Callable[[Any], Any]) -> None:
    """Install ``make(fn)`` in place of the function at ``module:dotted``."""
    owner, attr, raw = _resolve(modname, dotted)
    if isinstance(owner, type):
        if isinstance(raw, property):
            patcher.replace_attr(owner, attr, property(make(raw.fget)))
        else:
            patcher.replace_attr(owner, attr, make(raw))
    elif patcher.replace_everywhere(raw, make(raw)) == 0:
        raise RuntimeError(f"{modname}.{dotted} has no binding to wrap")


class Tracer:
    """In-memory span recorder over the layer wrap points."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._patcher = Patcher()
        self.op = -1  # current op id; -1 outside timed ops
        self.points: List[str] = []

    def _wrapper(self, name: str, point: str) -> Callable[[Any], Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def make(fn: Any) -> Any:
            @functools.wraps(fn)
            def span(*args: Any, **kwargs: Any) -> Any:
                idx = len(spans)
                spans.append(
                    [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, point]
                )
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()

            return span

        return make

    def install(self) -> None:
        points = dict(WRAP_POINTS)
        points["backends.numerics"] = numerics_points()
        for name in SPANS:
            for modname, dotted in points[name]:
                point = f"{modname}:{dotted}"
                wrap_point(self._patcher, modname, dotted, self._wrapper(name, point))
                self.points.append(point)

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- views -----------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """{span: {"self_s", "calls"}} over spans inside timed ops."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPANS}
        for i, s in enumerate(self.spans):
            if s[4] < 0:
                continue
            agg = out[s[0]]
            agg["self_s"] += (s[2] - s[1]) - child[i]
            agg["calls"] += 1
        return out

    def point_calls(self) -> Dict[str, int]:
        """{wrap point: calls anywhere in the run}, zero for points never hit."""
        out = dict.fromkeys(self.points, 0)
        for s in self.spans:
            out[s[5]] += 1
        return out

    def root_seconds(self) -> Dict[int, float]:
        """{op id: summed duration of that op's outermost spans}."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s[3] < 0 and s[4] >= 0:
                out[s[4]] = out.get(s[4], 0.0) + (s[2] - s[1])
        return out

    def write_chrome(self, path: Path, ops: List[Tuple[float, float]], t0: float) -> None:
        """Chrome trace-event JSON: one complete event per op and per span."""
        events = [
            {"name": "op", "cat": "bench", "ph": "X", "pid": 1, "tid": 1,
             "ts": (a - t0) * 1e6, "dur": (b - a) * 1e6, "args": {"op": i}}
            for i, (a, b) in enumerate(ops)
        ]
        for i, (name, a, b, parent, op, point) in enumerate(self.spans):
            events.append(
                {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1,
                 "tid": 1, "ts": (a - t0) * 1e6, "dur": (b - a) * 1e6,
                 "args": {"op": op, "span": i, "parent": parent, "fn": point}}
            )
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
