"""The five end-to-end workloads: inputs from a seed, ops, oracles.

``run.py`` drives a workload in rounds, all alike, in one process:

1. :meth:`Workload.release` drops the previous round's state, then
   :meth:`Workload.setup` builds every input from the seed, uploads or warms
   the graph, and runs three untimed warm-up ops so the lazy capture is in
   steady state.  Each set-up is timed (``setup_s``).
2. ``window`` ops: :meth:`next_input` (benchmark side, untimed), :meth:`op`
   (the library call, timed; its result is materialised on the host inside
   the timer) and :meth:`record` (untimed: digests of the checked outputs,
   kept in ``outputs``).
3. :meth:`finish` is library work after the last op (a ``wait()``, a
   serving drain); it counts toward ``host_ops_per_s`` only.  The first
   round's window is the *measured window*: simulated and virtual counters
   are deltas over exactly its ops.
4. :meth:`expected` runs the oracles once, after the last round; every
   round's ``outputs`` are compared with them.

Rounds start from a fresh set-up, so op ``i`` does the same work in every
round even where state grows with each op (the churned graph, multi_sim's
sliced-container memo).  The library receives only the generated inputs; no
workload reads a library-internal field to decide what to do.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np

import repro as gb
from repro import algorithms
from repro.backends.dispatch import get_backend, use_backend
from repro.gpu.device import get_device, reset_device
from repro.lazy import schedule
from repro.serve import BatchPolicy, GraphService, TrafficSpec, generate_trace
from repro.serve.engine import ExecutionEngine
from repro.streaming import (
    DynamicGraph,
    IncrementalBFS,
    IncrementalCC,
    random_edge_batch,
)

WARMUP_OPS = 3

# Sizes per mode.  ``window`` is the number of ops in one round.  Full sizes
# keep a round at 3-5 s on a 2-core machine, so a run holds several, and
# give the minimum of 3 rounds over 100 ops: at least 10 beyond the p90.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "bfs_s14": {"scale": 14, "window": 400},
        "pagerank_s13": {"scale": 13, "iters": 5, "window": 50},
        "pagerank_s13_p4": {"scale": 13, "iters": 5, "window": 35},
        "serve_zipf": {"scale": 13, "window": 5000, "checks": 200},
        "stream_churn": {"scale": 13, "window": 100},
    },
    "smoke": {
        "bfs_s14": {"scale": 10, "window": 40},
        "pagerank_s13": {"scale": 10, "iters": 5, "window": 10},
        "pagerank_s13_p4": {"scale": 10, "iters": 5, "window": 10},
        "serve_zipf": {"scale": 10, "window": 300, "checks": 40},
        "stream_churn": {"scale": 10, "window": 30},
    },
}

EDGE_FACTOR = 8


def subseed(seed: int, tag: int) -> int:
    """A 32-bit seed for one input stream, derived from the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def digest(*arrays: np.ndarray) -> str:
    """Fingerprint of the exact bytes (dtype and shape included)."""
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def vector_digest(v: Any) -> str:
    return digest(v.indices_array(), v.values_array())


def fresh_cuda_sim() -> None:
    """Forget residency, then replace the device (same order as the benches)."""
    get_backend("cuda_sim").evict_all()
    reset_device()


def non_isolated(g: Any) -> np.ndarray:
    return np.flatnonzero(np.diff(g.container.indptr) > 0)


class Workload:
    """Base: one backend session, a window, a host-side oracle."""

    name = ""
    backend = "cuda_sim"
    CHECK_EVERY = 1

    def __init__(self, seed: int, mode: str) -> None:
        self.seed = seed
        self.size = SIZES[mode][self.name]
        self.window = self.size["window"]

    # -- lifecycle -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop everything :meth:`setup` built, before it runs again."""
        for name in list(vars(self)):
            if name not in ("seed", "size", "window"):
                delattr(self, name)
        # This round's digests of checked outputs, by op index.
        self.outputs: Dict[int, Any] = {}

    def session(self) -> Any:
        """Context in which the timed loop runs (the backend scope)."""
        return use_backend(self.be)

    @property
    def be(self) -> Any:
        return get_backend(self.backend)

    def devices(self) -> List[Any]:
        return [get_device()]

    @property
    def cluster(self) -> Optional[Any]:
        return None

    def next_input(self, i: int) -> Any:
        return None

    def op(self, inp: Any) -> Any:
        raise NotImplementedError

    def record(self, i: int, out: Any) -> None:
        """Untimed, after op ``i``: digest every ``CHECK_EVERY``-th output."""
        if i % self.CHECK_EVERY == 0:
            self.outputs[i] = digest(*out)

    def finish(self) -> None:
        """Library work after the round's last op; closes the window."""
        schedule.wait()

    def window_counters(self) -> Dict[str, float]:
        """Workload-specific counters over the window (read at its close)."""
        return {}

    def end_to_end(self) -> Dict[str, float]:
        """Workload-specific end-to-end metrics (virtual clock)."""
        return {}

    def expected(self, ops: List[int]) -> Dict[int, Any]:
        """The cpu oracle's digests for ``ops``, once, after the last round."""
        raise NotImplementedError

    @property
    def failed_ops(self) -> int:
        """This round's ops the library failed beyond exceptions (shed, expired, stale)."""
        return 0


class BfsS14(Workload):
    """``bfs_levels`` on cuda_sim, one seeded non-isolated source per op."""

    name = "bfs_s14"
    CHECK_EVERY = 30

    def setup(self) -> None:
        fresh_cuda_sim()
        self.g = gb.generators.rmat(
            scale=self.size["scale"], edge_factor=EDGE_FACTOR, seed=subseed(self.seed, 1)
        )
        rng = np.random.default_rng(subseed(self.seed, 2))
        pool = non_isolated(self.g)
        self.sources = rng.choice(pool, size=self.window).tolist()
        with use_backend(self.be):
            for s in rng.choice(pool, size=WARMUP_OPS).tolist():
                self.op(s)

    def next_input(self, i: int) -> int:
        return self.sources[i]

    def op(self, source: int) -> Any:
        v = algorithms.bfs_levels(self.g, source)
        return v.indices_array(), v.values_array()

    def expected(self, ops: List[int]) -> Dict[int, Any]:
        with use_backend("cpu"):
            return {i: vector_digest(algorithms.bfs_levels(self.g, self.sources[i])) for i in ops}


class PageRankS13(Workload):
    """``pagerank(max_iter, tol=0)`` on cuda_sim, every op checked."""

    name = "pagerank_s13"

    def fresh_backend(self) -> None:
        fresh_cuda_sim()

    def setup(self) -> None:
        self.fresh_backend()
        self.g = gb.generators.rmat(
            scale=self.size["scale"], edge_factor=EDGE_FACTOR, seed=subseed(self.seed, 1)
        )
        with use_backend(self.be):
            for _ in range(WARMUP_OPS):
                self.op(None)

    def op(self, inp: Any) -> Any:
        v = algorithms.pagerank(self.g, max_iter=self.size["iters"], tol=0.0)
        return v.indices_array(), v.values_array()

    def expected(self, ops: List[int]) -> Dict[int, Any]:
        with use_backend("cpu"):
            want = vector_digest(
                algorithms.pagerank(self.g, max_iter=self.size["iters"], tol=0.0)
            )
        return dict.fromkeys(ops, want)


class PageRankS13P4(PageRankS13):
    """The same PageRank sharded over multi_sim P=4, degree-balanced."""

    name = "pagerank_s13_p4"
    backend = "multi_sim"
    NPARTS = 4

    def fresh_backend(self) -> None:
        self.be.configure(nparts=self.NPARTS, splitter="degree_balanced")

    def devices(self) -> List[Any]:
        return list(self.be.cluster.devices)

    @property
    def cluster(self) -> Any:
        return self.be.cluster


# The fig9 serving spec: Zipf sources over 1.2M users, 8 tenants.
SERVE_SPEC = dict(
    qps=250_000.0, n_users=1_200_000, n_tenants=8, source_skew=1.5, ppr_iters=5
)
SERVE_POLICY = BatchPolicy(max_batch=128, max_wait_us=3_000.0)
SERVE_STREAMS = 4


class ServeZipf(Workload):
    """Open-loop Zipf serving replayed by the host; one op is one submit.

    A round submits one fig9-spec trace of ``window`` queries, arriving
    after the warm-up queries, then drains the service.
    """

    name = "serve_zipf"

    def setup(self) -> None:
        fresh_cuda_sim()
        self.g = gb.generators.rmat(
            scale=self.size["scale"], edge_factor=EDGE_FACTOR, seed=subseed(self.seed, 1)
        )
        svc = GraphService(
            backend="cuda_sim", policy=SERVE_POLICY, streams=SERVE_STREAMS,
            store_results=False, store_digests=True,
        )
        svc.register_graph(self.g)
        for t in range(SERVE_SPEC["n_tenants"]):
            svc.add_tenant(f"tenant{t}", max_queue=10_000_000)
        self.svc = svc
        for sub in self._trace(WARMUP_OPS, subseed(self.seed, 99)):
            self.op(sub)
        svc.drain()
        self._w0 = len(svc.records)
        self._busy0 = svc.scheduler.busy_us
        self._batches0 = len(svc.batch_sizes)

    def _trace(self, n: int, seed: int) -> List[Any]:
        """A fig9-spec trace of ``n`` queries, arriving after all earlier work."""
        trace = generate_trace(TrafficSpec(n_queries=n, **SERVE_SPEC), self.g.nrows, seed=seed)
        offset = max(self.svc.now_us, self.svc.scheduler.makespan_us)
        return [replace(s, arrival_us=s.arrival_us + offset) for s in trace]

    def next_input(self, i: int) -> Any:
        if i == 0:
            self._current = self._trace(self.window, subseed(self.seed, 100))
        return self._current[i]

    def op(self, sub: Any) -> Any:
        return self.svc.submit(
            sub.tenant, sub.query, graph=sub.graph,
            arrival_us=sub.arrival_us, deadline_us=sub.deadline_us,
        )

    def record(self, i: int, out: Any) -> None:
        pass  # results exist once the service drains

    def finish(self) -> None:
        self.svc.drain()
        schedule.wait()
        recs = self.svc.records[self._w0 :]
        rng = np.random.default_rng(subseed(self.seed, 3))
        for k in rng.choice(len(recs), size=min(self.size["checks"], len(recs)), replace=False):
            if recs[k].status == "done":
                self.outputs[int(k)] = recs[k].digest
        done = [r for r in recs if r.status == "done"]
        lat = np.array([r.latency_us for r in done])
        wait = np.array([r.start_us - r.arrival_us for r in done])
        span_us = max(r.completion_us for r in done) - min(r.arrival_us for r in done)
        sizes = self.svc.batch_sizes[self._batches0 :]
        batches: Dict[Any, set] = {}
        for r in done:
            batches.setdefault((r.lane, r.start_us), set()).add(r.query.source)
        busy = self.svc.scheduler.busy_us - self._busy0
        n = len(recs)
        self._virt = {
            "virt_qps": len(done) / (span_us / 1e6),
            "virt_latency_us_p50": float(np.percentile(lat, 50)),
            "virt_latency_us_p99": float(np.percentile(lat, 99)),
        }
        self._counters = {
            "serve.batches": len(sizes) / n,
            "serve.batch_size_mean": float(np.mean(sizes)),
            "serve.dedup_ratio": sum(len(s) for s in batches.values()) / len(done),
            "serve.queue_wait_us_p50": float(np.percentile(wait, 50)),
            "serve.queue_wait_us_p99": float(np.percentile(wait, 99)),
            "serve.busy_frac": busy / (SERVE_STREAMS * span_us),
        }

    def window_counters(self) -> Dict[str, float]:
        return self._counters

    def end_to_end(self) -> Dict[str, float]:
        return self._virt

    @property
    def failed_ops(self) -> int:
        return sum(1 for r in self.svc.records[self._w0 :] if r.status != "done")

    def expected(self, ops: List[int]) -> Dict[int, Any]:
        """Each sampled query replayed alone through a cpu engine."""
        cpu = ExecutionEngine("cpu")
        cpu.register("default", self.g)
        want = {}
        for k in ops:
            sub = self._current[k]
            (res,), _ = cpu.execute(sub.graph, sub.query.coalesce_key(), [sub.query])
            want[k] = res.digest()
        return want


class StreamChurn(Workload):
    """Insert batches (every 5th with deletes) read back by BFS and CC views.

    A delete batch makes the BFS view recompute only if one of its deletes
    could be a BFS tree edge.  With 16 deletes nearly every delete batch
    does (with 8, about 85%), so the number of fallbacks varies little from
    seed to seed.
    """

    name = "stream_churn"
    INSERTS = 64
    DELETES = 16
    DELETE_EVERY = 5
    CHECK_EVERY = 25

    def setup(self) -> None:
        fresh_cuda_sim()
        self.base = gb.generators.rmat(
            scale=self.size["scale"], edge_factor=EDGE_FACTOR, seed=subseed(self.seed, 1)
        )
        rng = np.random.default_rng(subseed(self.seed, 2))
        self.source = int(rng.choice(non_isolated(self.base)))
        self._batch_seed = subseed(self.seed, 4)
        self.applied: List[Any] = []
        with use_backend(self.be):
            self.g = DynamicGraph(self.base.dup())
            self.bfs = IncrementalBFS(self.g, self.source)
            self.cc = IncrementalCC(self.g)
            self.bfs.query().indices_array()
            self.cc.query().indices_array()
            for w in range(WARMUP_OPS):
                self.op(self._batch(-1 - w))
        self._views0 = self._view_totals()
        self._compactions0 = self.g.stats.compactions

    def _batch(self, i: int) -> Any:
        """Batch for op ``i``; every DELETE_EVERY-th also deletes live edges."""
        deletes = self.DELETES if i % self.DELETE_EVERY == self.DELETE_EVERY - 1 else 0
        existing = self.g.edges() if deletes else None
        b = random_edge_batch(
            self._batch_seed + len(self.applied), self.g.n, inserts=self.INSERTS,
            deletes=deletes, existing=existing,
        )
        self.applied.append(b)
        return b

    def next_input(self, i: int) -> Any:
        return self._batch(i)

    def op(self, batch: Any) -> Any:
        self.g.apply(batch)
        lv = self.bfs.query()
        lb = self.cc.query()
        return lv.indices_array(), lv.values_array(), lb.indices_array(), lb.values_array()

    def record(self, i: int, out: Any) -> None:
        if i % self.CHECK_EVERY == 0:
            self.outputs[i] = (digest(*out[:2]), digest(*out[2:]))  # (BFS view, CC view)

    def _view_totals(self) -> np.ndarray:
        return np.array(
            [
                [v.stats.incremental_updates, v.stats.full_recomputes,
                 v.stats.delete_fallbacks, v.stats.size_fallbacks]
                for v in (self.bfs, self.cc)
            ]
        ).sum(axis=0)

    def finish(self) -> None:
        schedule.wait()
        inc, full, dele, size = self._view_totals() - self._views0
        n = self.window
        self._counters = {
            "streaming.incremental_ratio": inc / max(inc + full, 1),
            "streaming.delete_fallbacks": dele / n,
            "streaming.size_fallbacks": size / n,
            "streaming.compactions": (self.g.stats.compactions - self._compactions0) / n,
        }

    def window_counters(self) -> Dict[str, float]:
        return self._counters

    def expected(self, ops: List[int]) -> Dict[int, Any]:
        """Replay the same batches on a host-only graph; recompute on cpu."""
        want = {}
        with use_backend("cpu"):
            g = DynamicGraph(self.base.dup())
            for k, b in enumerate(self.applied):
                g.apply(b)
                i = k - WARMUP_OPS  # the warm-up batches come first
                if i in ops:
                    snap = g.snapshot()
                    want[i] = (
                        vector_digest(algorithms.bfs_levels(snap, self.source)),
                        vector_digest(algorithms.connected_components(snap)),
                    )
        return want


WORKLOADS = {
    w.name: w for w in (BfsS14, PageRankS13, PageRankS13P4, ServeZipf, StreamChurn)
}
