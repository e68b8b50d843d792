"""The serving layer: coalescing, bit-identity, fairness, admission,
deadlines, traffic determinism, stream overlap, and the asyncio facade."""

import asyncio

import numpy as np
import pytest

import repro as gb
from repro.serve import (
    BatchPolicy,
    BatchScheduler,
    BfsQuery,
    Coalescer,
    FeatureQuery,
    GraphService,
    KHopQuery,
    Overloaded,
    PprQuery,
    QueryRecord,
    TrafficSpec,
    generate_trace,
    zipf_choice,
)
from repro.serve.aio import AsyncGraphService

SERVE_BACKENDS = ["cuda_sim", "multi_sim:1", "multi_sim:2"]


def _make_service(spec, **kwargs):
    """Build a GraphService on a backend spec like ``multi_sim:2``."""
    if spec.startswith("multi_sim"):
        nparts = int(spec.split(":")[1])
        be = gb.get_backend("multi_sim").configure(
            nparts=nparts, splitter="degree_balanced"
        )
        be.reset()
        return GraphService(backend="multi_sim", **kwargs)
    return GraphService(backend=spec, **kwargs)


@pytest.fixture
def graph():
    return gb.generators.rmat(scale=7, edge_factor=6, seed=5)


@pytest.fixture
def trace(graph):
    spec = TrafficSpec(
        qps=4_000.0,
        n_queries=200,
        n_users=1_000_000,
        n_tenants=3,
        ppr_iters=3,
    )
    return generate_trace(spec, graph.nrows, seed=21)


# ---------------------------------------------------------------------------
# Batched vs sequential bit-identity (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend_spec", SERVE_BACKENDS)
    def test_batched_equals_single_source_per_type(self, backend_spec, graph):
        """Every query type, batched, matches its per-query single-source run."""
        queries = [
            BfsQuery(0),
            BfsQuery(5),
            KHopQuery(3, hops=1),
            KHopQuery(9, hops=2),
            KHopQuery(5, hops=3),  # source shared with the BfsQuery above
            PprQuery(2, iters=4),
            PprQuery(11, iters=4),
            PprQuery(2, iters=4),  # duplicate query
            FeatureQuery(7),
            FeatureQuery(0),
        ]

        def run(policy):
            svc = _make_service(backend_spec, policy=policy)
            svc.register_graph(graph)
            for i, q in enumerate(queries):
                svc.submit("t0", q, arrival_us=float(i))
            svc.drain()
            return {r.qid: r for r in svc.stats().completed}

        batched = run(BatchPolicy(max_batch=16, max_wait_us=1e6))
        single = run(BatchPolicy(max_batch=1, max_wait_us=0.0))
        assert len(batched) == len(single) == len(queries)
        for qid in batched:
            b, s = batched[qid], single[qid]
            assert s.batch_size == 1
            assert b.result == s.result, f"qid {qid} ({b.query})"
            assert b.digest == s.digest
        # Coalescing actually happened: traversals shared one launch.
        sizes = sorted(r.batch_size for r in batched.values())
        assert sizes[-1] >= 3

    @pytest.mark.parametrize("backend_spec", SERVE_BACKENDS)
    def test_trace_digests_backend_invariant_batching(self, backend_spec, graph, trace):
        """A whole Zipf trace: batched digests == unbatched digests."""
        def run(policy):
            svc = _make_service(backend_spec, policy=policy, streams=2)
            svc.register_graph(graph)
            for t in range(3):
                svc.add_tenant(f"tenant{t}", max_queue=10_000)
            stats = svc.run_trace(trace)
            return {r.qid: r.digest for r in stats.completed}

        batched = run(BatchPolicy(max_batch=24, max_wait_us=3_000.0))
        single = run(BatchPolicy(max_batch=1, max_wait_us=0.0))
        assert batched == single and len(batched) == len(trace)

    def test_khop_filters_deeper_shared_batch(self, graph):
        """A khop query batched with a deeper khop still gets only its hops."""
        svc = _make_service("cuda_sim", policy=BatchPolicy(max_batch=8, max_wait_us=1e6))
        svc.register_graph(graph)
        r_hop = svc.submit("t0", KHopQuery(4, hops=1), arrival_us=0.0)
        svc.submit("t0", KHopQuery(4, hops=3), arrival_us=1.0)
        svc.drain()
        assert r_hop.status == "done" and r_hop.batch_size == 2
        assert r_hop.result.values.max() <= 1

    def test_full_bfs_never_joins_bounded_pool(self, graph):
        """An unbounded BFS must not void a k-hop batch's early exit."""
        svc = _make_service("cuda_sim", policy=BatchPolicy(max_batch=8, max_wait_us=1e6))
        svc.register_graph(graph)
        r_hop = svc.submit("t0", KHopQuery(4, hops=1), arrival_us=0.0)
        r_bfs = svc.submit("t0", BfsQuery(4), arrival_us=1.0)
        svc.drain()
        assert r_hop.status == "done" and r_hop.batch_size == 1
        assert r_bfs.status == "done" and r_bfs.batch_size == 1
        assert r_hop.result.values.max() <= 1


# ---------------------------------------------------------------------------
# Coalescer mechanics
# ---------------------------------------------------------------------------


def _rec(qid, tenant, query, arrival_us, graph="g"):
    return QueryRecord(qid, tenant, graph, query, arrival_us)


class TestCoalescer:
    def test_keys_separate_incompatible_queries(self):
        c = Coalescer(BatchPolicy(max_batch=8))
        c.add(_rec(0, "a", KHopQuery(0, hops=2), 0.0))
        c.add(_rec(1, "a", BfsQuery(1), 0.0))
        c.add(_rec(2, "a", PprQuery(2), 0.0))
        c.add(_rec(3, "a", PprQuery(3, damping=0.5), 0.0))
        c.add(_rec(4, "a", BfsQuery(0), 0.0, graph="other"))
        # bounded traverse, full traverse, ppr(0.85), ppr(0.5), and the
        # other graph: 5 pools (full BFS never rides in a k-hop batch).
        assert len(c.pending_keys()) == 5 and len(c) == 5

    def test_size_trigger(self):
        c = Coalescer(BatchPolicy(max_batch=2, max_wait_us=1e9))
        key = c.add(_rec(0, "a", BfsQuery(0), 0.0))
        assert not c.full(key)
        c.add(_rec(1, "a", BfsQuery(1), 1.0))
        assert c.full(key)

    def test_age_trigger_tracks_oldest(self):
        c = Coalescer(BatchPolicy(max_batch=100, max_wait_us=50.0))
        c.add(_rec(0, "a", BfsQuery(0), 10.0))
        c.add(_rec(1, "a", BfsQuery(1), 40.0))
        assert c.next_close_us() == 60.0
        assert c.due_keys(59.0) == []
        assert c.due_keys(60.0) == [("g", ("traverse", "full"))]

    def test_drain_respects_max_batch_and_arrival_order(self):
        c = Coalescer(BatchPolicy(max_batch=3, max_wait_us=0.0))
        for i in range(5):
            key = c.add(_rec(i, "a", BfsQuery(i), float(i)))
        batch = c.drain(key, {"a": 1.0})
        assert [p.qid for p in batch] == [0, 1, 2]
        assert len(c) == 2

    def test_fair_drain_protects_light_tenant(self):
        """A flooding tenant cannot exclude a light tenant from the batch."""
        c = Coalescer(BatchPolicy(max_batch=4, max_wait_us=0.0))
        for i in range(20):
            key = c.add(_rec(i, "heavy", BfsQuery(i % 7), float(i)))
        c.add(_rec(100, "light", BfsQuery(3), 50.0))
        batch = c.drain(key, {"heavy": 1.0, "light": 1.0})
        tenants = [p.tenant for p in batch]
        assert "light" in tenants and tenants.count("heavy") == 3

    def test_fair_drain_weights_shift_shares(self):
        c = Coalescer(BatchPolicy(max_batch=6, max_wait_us=0.0))
        for i in range(12):
            key = c.add(_rec(i, "a", BfsQuery(i), float(i)))
        for i in range(12, 24):
            c.add(_rec(i, "b", BfsQuery(i), float(i)))
        batch = c.drain(key, {"a": 2.0, "b": 1.0})
        tenants = [p.tenant for p in batch]
        assert tenants.count("a") == 4 and tenants.count("b") == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_us=-1.0)


# ---------------------------------------------------------------------------
# Scheduler lanes
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_streams_overlap(self):
        s = BatchScheduler(streams=2)
        a = s.place(0.0, 100.0)
        b = s.place(0.0, 100.0)
        assert a[0] == b[0] == 0.0 and a[2] != b[2]
        c = s.place(0.0, 50.0)  # both lanes busy until 100
        assert c[0] == 100.0
        assert s.makespan_us == 150.0 and s.busy_us == 250.0

    def test_single_stream_serialises(self):
        s = BatchScheduler(streams=1)
        s.place(0.0, 10.0)
        start, done, _ = s.place(0.0, 10.0)
        assert (start, done) == (10.0, 20.0)

    def test_simulate_queueing_matches_live_placement(self):
        """place() is first-in-first-out onto the least-loaded lane."""
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0, 1_000, 50))
        durations = rng.uniform(5, 50, 50)
        free = [0.0, 0.0]
        offline = []
        for a, d in zip(arrivals, durations):
            lane = free.index(min(free))
            free[lane] = max(a, free[lane]) + d
            offline.append(free[lane])
        live = BatchScheduler(streams=2)
        expect = [live.place(a, d)[1] for a, d in zip(arrivals, durations)]
        assert offline == expect

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(streams=0)


# ---------------------------------------------------------------------------
# Admission control / fairness / deadlines
# ---------------------------------------------------------------------------


class TestAdmissionAndDeadlines:
    def test_overloaded_is_typed_and_recorded(self, graph):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=100, max_wait_us=1e9)
        )
        svc.register_graph(graph)
        svc.add_tenant("t0", max_queue=3)
        for i in range(3):
            svc.submit("t0", BfsQuery(i), arrival_us=float(i))
        with pytest.raises(Overloaded) as exc:
            svc.submit("t0", BfsQuery(9), arrival_us=3.0)
        assert exc.value.tenant == "t0"
        assert exc.value.depth == 3 and exc.value.limit == 3
        shed = [r for r in svc.records if r.status == "shed"]
        assert len(shed) == 1 and svc.tenants["t0"].shed == 1

    def test_overload_is_per_tenant(self, graph):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=100, max_wait_us=1e9)
        )
        svc.register_graph(graph)
        svc.add_tenant("greedy", max_queue=2)
        svc.add_tenant("modest", max_queue=2)
        svc.submit("greedy", BfsQuery(0), arrival_us=0.0)
        svc.submit("greedy", BfsQuery(1), arrival_us=0.0)
        with pytest.raises(Overloaded):
            svc.submit("greedy", BfsQuery(2), arrival_us=0.0)
        # The other tenant is unaffected.
        rec = svc.submit("modest", BfsQuery(3), arrival_us=0.0)
        assert rec.status == "queued"

    def test_queue_frees_after_completion(self, graph):
        svc = _make_service("cuda_sim", policy=BatchPolicy(max_batch=2, max_wait_us=10.0))
        svc.register_graph(graph)
        svc.add_tenant("t0", max_queue=2)
        svc.submit("t0", BfsQuery(0), arrival_us=0.0)
        svc.submit("t0", BfsQuery(1), arrival_us=1.0)  # fills batch, dispatches
        done = max(r.completion_us for r in svc.records)
        rec = svc.submit("t0", BfsQuery(2), arrival_us=done + 1.0)
        assert rec.status == "queued"

    def test_expired_before_dispatch_dropped(self, graph):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=100, max_wait_us=500.0)
        )
        svc.register_graph(graph)
        rec = svc.submit("t0", BfsQuery(0), arrival_us=0.0, deadline_us=100.0)
        svc.advance_to(1_000.0)  # age trigger at 500 > deadline 100
        assert rec.status == "expired"
        assert rec.result is None
        stats = svc.stats()
        assert stats.expired_count == 1 and not stats.completed

    def test_deadline_missed_after_completion_counted(self, graph):
        svc = _make_service("cuda_sim", policy=BatchPolicy(max_batch=1))
        svc.register_graph(graph)
        ok = svc.submit("t0", BfsQuery(0), arrival_us=0.0, deadline_us=1e9)
        tight = svc.submit("t0", BfsQuery(1), arrival_us=0.0, deadline_us=1e-3)
        svc.drain()
        assert ok.status == tight.status == "done"
        assert ok.deadline_met is True and tight.deadline_met is False
        assert svc.stats().deadline_missed_count == 1

    def test_fairness_under_adversarial_skew(self, graph):
        """A tenant flooding 10x the traffic cannot starve the light tenant:
        with equal weights, the light tenant's p99 stays in the same regime
        as the heavy tenant's (no unbounded queue growth for the victim)."""
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=8, max_wait_us=2_000.0)
        )
        svc.register_graph(graph)
        svc.add_tenant("heavy", weight=1.0, max_queue=100_000)
        svc.add_tenant("light", weight=1.0, max_queue=100_000)
        qid = 0
        for burst in range(40):
            t = burst * 500.0
            for j in range(10):
                svc.submit("heavy", KHopQuery((qid * 7) % graph.nrows, hops=2),
                           arrival_us=t + j * 0.1)
                qid += 1
            svc.submit("light", KHopQuery((qid * 13) % graph.nrows, hops=2),
                       arrival_us=t + 5.0)
            qid += 1
        svc.drain()
        stats = svc.stats()
        p99_light = stats.latency_percentile(99, tenant="light")
        p99_heavy = stats.latency_percentile(99, tenant="heavy")
        assert stats.tenant_summary()["light"]["completed"] == 40
        assert p99_light <= 2.0 * p99_heavy

    def test_depth_counts_match_records(self, graph):
        """After every submit, each tenant's queued and in-flight counts (and
        every Overloaded depth) equal a recount from the records, through
        shedding, deadline expiry, stale eviction and in-flight retirement."""
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=6, max_wait_us=300.0)
        )
        svc.register_graph(graph)
        svc.add_tenant("t0", max_queue=4)
        svc.add_tenant("t1", max_queue=10_000)
        m = svc.engine.graph("default").matrix
        i, j = map(int, np.transpose(np.nonzero(m.to_dense()))[0])

        def recount(tenant, now_us):
            mine = [r for r in svc.records if r.tenant == tenant]
            queued = sum(r.status == "queued" for r in mine)
            in_flight = sum(
                r.status == "done" and r.completion_us > now_us for r in mine
            )
            return queued, in_flight

        statuses = set()
        for k in range(160):
            if k == 60:
                m.set_element(i, j, 2.0)  # queued pools go stale
            if k == 100:
                svc.add_tenant("t0", max_queue=4)  # re-adding keeps the counts
            tenant = "t0" if k % 3 else "t1"
            arrival = 40.0 * k
            deadline = arrival + 150.0 if k % 5 == 0 else None
            try:
                svc.submit(tenant, KHopQuery(k % graph.nrows, hops=2),
                           arrival_us=arrival, deadline_us=deadline)
            except Overloaded as exc:
                assert exc.depth == sum(recount(tenant, arrival))
            for t in ("t0", "t1"):
                assert (svc._queued[t], svc._in_flight[t]) == recount(t, arrival)
            statuses |= {r.status for r in svc.records}
        assert statuses == {"queued", "done", "shed", "expired", "stale"}

    def test_tenant_validation(self, graph):
        svc = _make_service("cuda_sim")
        with pytest.raises(ValueError):
            svc.add_tenant("t", weight=0.0)
        with pytest.raises(ValueError):
            svc.add_tenant("t", max_queue=0)

    def test_query_validation_at_submit(self, graph):
        svc = _make_service("cuda_sim")
        svc.register_graph(graph)
        with pytest.raises(gb.IndexOutOfBoundsError):
            svc.submit("t0", BfsQuery(graph.nrows))
        with pytest.raises(gb.InvalidValueError):
            svc.submit("t0", PprQuery(0, damping=1.5))
        with pytest.raises(KeyError):
            svc.submit("t0", BfsQuery(0), graph="nope")


# ---------------------------------------------------------------------------
# Traffic generator
# ---------------------------------------------------------------------------


class TestTraffic:
    def test_deterministic_given_seed(self, graph):
        spec = TrafficSpec(n_queries=100, n_users=1_000_000)
        a = generate_trace(spec, graph.nrows, seed=5)
        b = generate_trace(spec, graph.nrows, seed=5)
        assert a == b
        c = generate_trace(spec, graph.nrows, seed=6)
        assert a != c

    def test_zipf_skews_head(self):
        rng = np.random.default_rng(0)
        draws = zipf_choice(rng, 1_000_000, 1.2, 20_000)
        assert draws.min() >= 0 and draws.max() < 1_000_000
        # Rank 0 alone should beat the entire tail half.
        head = (draws == 0).sum()
        assert head > (draws >= 500_000).sum()

    def test_zipf_zero_skew_is_uniformish(self):
        rng = np.random.default_rng(1)
        draws = zipf_choice(rng, 10, 0.0, 50_000)
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 4_000

    def test_mix_and_deadlines_respected(self, graph):
        spec = TrafficSpec(
            n_queries=300,
            mix=(("bfs", 0.5), ("feature", 0.5)),
            deadline_us=1_234.0,
        )
        trace = generate_trace(spec, graph.nrows, seed=2)
        kinds = {s.query.kind for s in trace}
        assert kinds == {"bfs", "feature"}
        for s in trace:
            assert s.deadline_us == pytest.approx(s.arrival_us + 1_234.0)

    def test_arrival_rate_matches_qps(self, graph):
        spec = TrafficSpec(qps=10_000.0, n_queries=5_000)
        trace = generate_trace(spec, graph.nrows, seed=3)
        span_s = trace[-1].arrival_us / 1e6
        assert 5_000 / span_s == pytest.approx(10_000.0, rel=0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(qps=0)
        with pytest.raises(ValueError):
            TrafficSpec(n_tenants=0)
        with pytest.raises(ValueError):
            TrafficSpec(mix=(("bfs", -1.0),))


# ---------------------------------------------------------------------------
# asyncio facade
# ---------------------------------------------------------------------------


class TestAsyncFacade:
    def test_awaited_submissions_batch_and_match(self, graph):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=4, max_wait_us=1e6)
        )
        svc.register_graph(graph)
        aio = AsyncGraphService(svc)

        async def client(i):
            return await aio.submit("t0", KHopQuery(i, hops=2), arrival_us=float(i))

        async def main():
            recs = await asyncio.gather(*(client(i) for i in range(4)))
            await aio.drain()
            return recs

        recs = asyncio.run(main())
        assert all(r.status == "done" for r in recs)
        assert max(r.batch_size for r in recs) == 4
        expect = {r.qid: r.digest for r in recs}
        # Against per-query single-source execution:
        ssvc = _make_service("cuda_sim", policy=BatchPolicy(max_batch=1))
        ssvc.register_graph(graph)
        for i in range(4):
            ssvc.submit("t0", KHopQuery(i, hops=2), arrival_us=float(i))
        ssvc.drain()
        singles = {r.qid: r.digest for r in ssvc.stats().completed}
        assert expect == singles

    def test_async_overload_raises_out_of_await(self, graph):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=100, max_wait_us=1e9)
        )
        svc.register_graph(graph)
        svc.add_tenant("t0", max_queue=1)
        aio = AsyncGraphService(svc)

        async def main():
            svc.submit("t0", BfsQuery(0), arrival_us=0.0)
            with pytest.raises(Overloaded):
                await aio.submit("t0", BfsQuery(1), arrival_us=0.0)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------


class TestStats:
    def test_batch_size_histogram_counts_every_batch(self, graph, trace):
        svc = _make_service(
            "cuda_sim", policy=BatchPolicy(max_batch=16, max_wait_us=2_000.0)
        )
        svc.register_graph(graph)
        stats = svc.run_trace(trace)
        hist = stats.batch_size_histogram
        assert sum(k * v for k, v in hist.items()) == len(stats.completed)
        assert sum(hist.values()) == len(svc.batch_sizes)
        assert max(hist) > 1  # coalescing happened

    def test_to_dict_is_json_ready(self, graph, trace):
        import json

        svc = _make_service("cuda_sim")
        svc.register_graph(graph)
        stats = svc.run_trace(trace)
        d = json.loads(json.dumps(stats.to_dict()))
        assert d["completed"] == len(trace) and d["sustained_qps"] > 0

    def test_warm_setup_accounted_separately(self, graph):
        svc = _make_service("cuda_sim")
        svc.register_graph(graph, warm=True)
        assert svc.setup_us > 0
        assert svc.scheduler.busy_us == 0  # warmup is not query time
