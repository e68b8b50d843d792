"""Every metric the end-to-end benchmark reports: name, unit, clock, direction.

Three clocks appear here and every metric names one:

- ``host`` — wall time (or memory) of this Python process, what a caller
  waits for;
- ``sim`` — the simulated device: cost-model microseconds, charged launch
  records and modelled bytes on ``cuda_sim`` (kernel + transfer time) or the
  cluster makespan on ``multi_sim``.  Deterministic for a given seed;
- ``virtual`` — the serving layer's discrete-event clock (arrival to
  completion of each query), also deterministic.

``BENCHMARK.json`` at the repository root names the subset that is gated,
with bounds; ``test_e2e_bench.py`` checks that both agree on units and
directions.  Metrics absent there are still printed, written to ``--out``
and compared by ``compare.py``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    unit: str
    clock: str  # "host" | "sim" | "virtual" | "both"
    better: str  # "lower" | "higher"


END_TO_END: Dict[str, Metric] = {
    "host_ops_per_s": Metric("ops/s", "host", "higher"),
    "host_op_ms_p50": Metric("ms", "host", "lower"),
    "host_op_ms_p90": Metric("ms", "host", "lower"),
    "setup_s": Metric("s", "host", "lower"),
    "peak_rss_mb": Metric("MB", "host", "lower"),
    "sim_us_per_op": Metric("us", "sim", "lower"),
    "launches_per_op": Metric("launches", "sim", "lower"),
    "h2d_bytes_per_op": Metric("B", "sim", "lower"),
    # serve_zipf only: the open loop's own clock.
    "virt_qps": Metric("queries/s", "virtual", "higher"),
    "virt_latency_us_p50": Metric("us", "virtual", "lower"),
    "virt_latency_us_p99": Metric("us", "virtual", "lower"),
    "failed_frac": Metric("fraction", "both", "lower"),
}

# Host spans: each wraps a set of public functions from outside (spans.py).
SPANS: Tuple[str, ...] = (
    "serve.submit",
    "serve.coalesce",
    "serve.execute",
    "streaming.apply",
    "streaming.compact",
    "streaming.query",
    "algorithms.call",
    "lazy.flush",
    "lazy.passes",
    "lazy.capture",
    "gpu.launch",
    "gpu.transfer",
    "gpu.costmodel",
    "backends.numerics",
    "distributed.comm",
)

# Counters read from the library's public stats over the measured window.
COUNTERS: Dict[str, Metric] = {
    "gpu.kernel_us": Metric("us/op", "sim", "lower"),
    "gpu.transfer_us": Metric("us/op", "sim", "lower"),
    "gpu.replays": Metric("count/op", "sim", "lower"),
    "gpu.h2d_bytes": Metric("B/op", "sim", "lower"),
    "gpu.h2d_elided_bytes": Metric("B/op", "sim", "higher"),
    "gpu.pool_hit_rate": Metric("ratio", "sim", "higher"),
    "lazy.flushes": Metric("count/op", "sim", "lower"),
    "lazy.nodes_per_flush": Metric("nodes", "sim", "higher"),
    "lazy.replay_ratio": Metric("ratio", "sim", "higher"),
    "distributed.comm_bytes": Metric("B/op", "sim", "lower"),
    "distributed.comm_count": Metric("count/op", "sim", "lower"),
    "distributed.comm_us": Metric("us/op", "sim", "lower"),
    "distributed.max_kernel_us": Metric("us/op", "sim", "lower"),
    "serve.batches": Metric("count/op", "virtual", "lower"),
    "serve.batch_size_mean": Metric("queries", "virtual", "higher"),
    "serve.dedup_ratio": Metric("ratio", "virtual", "lower"),
    "serve.queue_wait_us_p50": Metric("us", "virtual", "lower"),
    "serve.queue_wait_us_p99": Metric("us", "virtual", "lower"),
    "serve.busy_frac": Metric("ratio", "virtual", "lower"),
    "streaming.incremental_ratio": Metric("ratio", "sim", "higher"),
    "streaming.delete_fallbacks": Metric("count/op", "sim", "lower"),
    "streaming.size_fallbacks": Metric("count/op", "sim", "lower"),
    "streaming.compactions": Metric("count/op", "sim", "lower"),
}


def _per_layer() -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    for span in SPANS:
        out[f"{span}.self_ms"] = Metric("ms/op", "host", "lower")
        out[f"{span}.calls"] = Metric("calls/op", "host", "lower")
    out["other.self_ms"] = Metric("ms/op", "host", "lower")
    out.update(COUNTERS)
    return out


# Span metrics (traced runs) followed by the counters (every run).
PER_LAYER: Dict[str, Metric] = _per_layer()


def deterministic(name: str) -> bool:
    """True for metrics that repeat bit-for-bit for one seed.

    ``failed_frac`` counts too: any failure is a defect, never noise.
    """
    m = END_TO_END.get(name) or PER_LAYER.get(name)
    return m is not None and m.clock != "host"
