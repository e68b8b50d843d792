"""gbsan: planted hazards must be caught; clean workloads must stay clean.

Each planted-hazard test constructs the minimal buggy interaction pattern
directly against the gpu layer (residency, allocator, loop capture) and
asserts both that the sanitizer reports the expected hazard class and that
the diagnostic message carries enough context to act on.  The zero-FP tests
run real algorithm workloads on every simulated backend and assert gbsan
stays silent (the full tier-1 suite enforces the same through the autouse
fixture in conftest.py whenever ``GBSAN=1``).
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

import repro as gb
from repro import sanitizer as sz
from repro.backends.dispatch import get_backend, use_backend
from repro.distributed.cluster import SimCluster
from repro.exceptions import SanitizerError
from repro.gpu.costmodel import KernelWork
from repro.gpu.device import Device, get_device, reset_device
from repro.gpu.kernel import Kernel, LaunchConfig, launch
from repro.gpu.residency import ResidentSet
from repro.policy import policy
from repro.sanitizer import runtime as _runtime
from repro.sanitizer.access import Access

pytestmark = pytest.mark.no_multi_sim


NOP = Kernel(
    "nop_test_kernel",
    lambda *a, **k: None,
    lambda *a, **k: KernelWork(flops=8.0, bytes_read=64.0, bytes_written=64.0),
)
CFG = LaunchConfig(1, 32)


def _vec(n=8, seed=0):
    rng = np.random.default_rng(seed)
    v = gb.Vector.from_lists(
        list(range(n)), [float(x) for x in rng.uniform(1, 9, n)], n, gb.FP64
    )
    return v.container


@pytest.fixture
def dev():
    return Device()


@pytest.fixture
def san():
    with sz.sanitized() as s:
        yield s


def kinds(s):
    return [f.kind for f in s.findings]


# ---------------------------------------------------------------------------
# Hazard 1: elided transfer (stale-read) and residency bookkeeping
# ---------------------------------------------------------------------------


class TestResidencySanitizer:
    def test_stale_read_after_host_mutation(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)  # uploaded, clean
        c.bump_version()  # host mutates in place; device copy now stale
        launch(NOP, CFG, device=dev, san_reads=(c,))  # ensure() forgotten
        assert kinds(san) == ["stale-read"]
        f = san.findings[0]
        assert "elided" in f.message and "v" in f.buffer
        san.drain()

    def test_unresident_read_reported(self, dev, san):
        c = _vec()
        launch(NOP, CFG, device=dev, san_reads=(c,))
        assert kinds(san) == ["unresident-read"]
        assert "never uploaded" in san.findings[0].message
        san.drain()

    def test_missing_note_result_on_redundant_upload(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)
        # Kernel produces c on-device, but the backend forgets note_result…
        launch(NOP, CFG, device=dev, san_writes=(c,))
        # …so when the frontend stamps the output, the host copy "looks
        # newer" and the next use re-uploads data the device already has.
        c.bump_version()
        rs.ensure(c)
        assert "missing-note-result" in kinds(san)
        f = next(f for f in san.findings if f.kind == "missing-note-result")
        assert "note_result" in f.message and "nop_test_kernel" in f.message
        san.drain()

    def test_note_result_quiets_the_report(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)
        launch(NOP, CFG, device=dev, san_writes=(c,))
        rs.mark(c)  # note_result done right: device copy declared clean
        launch(NOP, CFG, device=dev, san_reads=(c,))
        assert san.findings == []

    def test_read_on_a_device_the_data_never_reached(self, san):
        # Devices share no memory: data reaches a peer only by a collective
        # and a mark there, so a read before that is unresident.
        cluster = SimCluster(2)
        ex0, ex1 = cluster.executors
        c = _vec()
        ex0._resident.ensure(c)  # uploaded to device 0 only
        launch(NOP, CFG, device=cluster.devices[1], san_reads=(c,))
        assert kinds(san) == ["unresident-read"]
        san.drain()
        cluster.collective("broadcast", float(c.nbytes))
        ex1._resident.mark(c)
        launch(NOP, CFG, device=cluster.devices[1], san_reads=(c,))
        assert san.findings == []

    def test_dropped_device_keeps_its_shadow(self, san):
        # The shadow is keyed by id(device).  A device that reached gbsan
        # only through a mark must stay pinned, or a new device allocated
        # at its address would read the dropped device's residency.
        c = _vec()
        refs = []
        for _ in range(50):
            dev = Device()
            ResidentSet(lambda: dev).mark(c)
            old = id(dev)
            refs.append(weakref.ref(dev))
            del dev
            new = Device()
            if id(new) == old:
                launch(NOP, CFG, device=new, san_reads=(c,))
                assert kinds(san) == ["unresident-read"]
                san.drain()
                return
        # No address was reused because every dropped device is pinned.
        assert all(r() is not None for r in refs)


# ---------------------------------------------------------------------------
# Hazard 2: pool lifetime (use-after-free, alias, leak)
# ---------------------------------------------------------------------------


class TestPoolLifetime:
    def test_use_after_free_read(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)
        # Free the device buffer behind the resident set's back.
        for cont, buf, _ in list(rs._entries.values()):
            buf.free()
        launch(NOP, CFG, device=dev, san_reads=(c,))
        assert "use-after-free" in kinds(san)
        assert "freed" in san.findings[0].message
        san.drain()

    def test_pool_alias_on_reissued_block(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)
        entry = next(iter(rs._entries.values()))
        entry[1].free()  # block returns to the pool; rs still maps c onto it
        # Same-size allocation reissues the pooled block.
        dev.allocator.reserve(c.nbytes)
        assert "pool-alias" in kinds(san)
        assert "reissued" in san.findings[0].message
        san.drain()

    def test_leak_reported_at_device_reset(self, dev, san):
        buf = dev.allocator.reserve(4096)
        assert buf.alive
        dev.reset()
        assert "leak" in kinds(san)
        assert "no resident set references it" in san.findings[0].message
        san.drain()

    def test_resident_buffers_do_not_leak(self, dev, san):
        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)
        san.check_leaks(dev.allocator)
        assert san.findings == []


# ---------------------------------------------------------------------------
# Hazard 3: stale loop replay
# ---------------------------------------------------------------------------


def _mxv_loop(a, u, iterations, between=None):
    """A lazy loop on cuda_sim: one ``w = a·u`` flush per iteration."""
    from repro.core import operations as ops
    from repro.core.semiring import PLUS_TIMES

    get_backend("cuda_sim").evict_all()
    reset_device()
    with use_backend("cuda_sim"):
        for i in range(iterations):
            if i and between is not None:
                between()
            w = gb.Vector.sparse(gb.FP64, u.size)
            ops.mxv(w, a, u, PLUS_TIMES)
            w.nvals  # forces the flush: the first is the capture
    return get_device().profiler.replay_count


class TestGraphReplayChecker:
    def test_replay_after_reupload_is_stale(self, san):
        a = gb.Matrix.from_dense(np.eye(8) + np.eye(8, k=1))
        u = gb.Vector.from_lists(list(range(8)), [1.0] * 8, 8, gb.FP64)

        def rebind_behind_capture():
            # A residency path that moves u to a NEW device buffer without
            # counting the rebind: the loop keeps replaying the old binding.
            rs = get_backend("cuda_sim")._resident
            c = u.container
            rs._entries.pop(id(c))[1].free()
            c._aux.clear()
            rs.mark(c)

        _mxv_loop(a, u, 2, between=rebind_behind_capture)
        assert "stale-replay" in kinds(san)
        f = next(f for f in san.findings if f.kind == "stale-replay")
        assert "re-instantiate" in f.message and "mxv" in f.site
        san.drain()

    def test_host_write_reinstantiates_loop(self, san):
        # The real flow: a host write re-uploads u into a new buffer, the
        # device counts the rebind, and the loop re-captures instead of
        # replaying stale bindings.
        a = gb.Matrix.from_dense(np.eye(8) + np.eye(8, k=1))
        u = gb.Vector.from_lists(list(range(8)), [1.0] * 8, 8, gb.FP64)
        assert _mxv_loop(a, u, 3, between=lambda: u.set_element(0, 5.0)) == 0
        assert san.findings == []

    def test_recapture_binds_afresh(self, dev, san):
        # A re-instantiated loop's capture did not read c; its later replay
        # reads c's new buffer and must not be held to the old capture.
        from repro.lazy import capture
        from repro.lazy.ir import Node

        c = _vec()
        rs = ResidentSet(lambda: dev)
        rs.ensure(c)

        def flush(*reads):
            (agg,) = capture.enter([Node("iter", None, {}, {}, None)], [dev])
            dev.active_graph = agg
            try:
                launch(NOP, CFG, device=dev, san_reads=reads)
            finally:
                dev.active_graph = None

        flush(c)  # capture binds c
        rs.evict_all()
        rs.ensure(c)  # a counted rebind: c moves to a new buffer
        flush()  # re-instantiated; this capture reads nothing
        flush(c)  # replay
        assert san.findings == []

    def test_stable_buffers_replay_clean(self, san):
        a = gb.Matrix.from_dense(np.eye(8) + np.eye(8, k=1))
        u = gb.Vector.from_lists(list(range(8)), [1.0] * 8, 8, gb.FP64)
        assert _mxv_loop(a, u, 3) >= 1
        assert san.findings == []


# ---------------------------------------------------------------------------
# Modes: strict raising, enable/disable, reporting
# ---------------------------------------------------------------------------


class TestModes:
    def test_strict_mode_raises(self, dev):
        c = _vec()
        with pytest.raises(SanitizerError) as ei:
            with sz.sanitized(strict=True):
                launch(NOP, CFG, device=dev, san_reads=(c,))
        assert ei.value.finding.kind == "unresident-read"
        # Under GBSAN=1 the scope reused the ambient sanitizer, which still
        # holds the planted finding; drain it so the suite stays zero-FP.
        ambient = sz.active()
        if ambient is not None:
            ambient.drain()

    def test_disabled_records_nothing(self, dev):
        prior = sz.disable()  # force-disable even under an ambient GBSAN=1
        try:
            assert sz.active() is None
            c = _vec()
            launch(NOP, CFG, device=dev, san_reads=(c,))  # hook is a no-op
            assert sz.findings() == []
        finally:
            _runtime.ACTIVE = prior

    def test_report_and_str_formats(self, dev, san):
        c = _vec()
        launch(NOP, CFG, device=dev, san_reads=(c,))
        text = san.report()
        assert "gbsan" in text and "unresident-read" in text
        assert str(san.findings[0]).startswith("gbsan[unresident-read]")
        san.drain()
        assert san.report() == "gbsan: no findings"

    def test_findings_dedup(self, dev, san):
        c = _vec()
        for _ in range(5):
            launch(NOP, CFG, device=dev, san_reads=(c,))
        assert len(san.findings) == 1
        san.drain()


# ---------------------------------------------------------------------------
# Zero false positives on real workloads, every simulated backend
# ---------------------------------------------------------------------------


def _workload():
    from repro.algorithms.bfs import bfs_levels
    from repro.algorithms.pagerank import pagerank
    from repro.generators.rmat import rmat

    a = rmat(7, 8, seed=3)
    bfs_levels(a, 0)
    pagerank(a, max_iter=12)


class TestZeroFalsePositives:
    def test_cuda_sim_clean(self):
        with use_backend("cuda_sim"):
            with sz.sanitized() as san:
                _workload()
                assert san.findings == [], san.report()

    @pytest.mark.parametrize("nparts", [1, 2, 4])
    def test_multi_sim_clean(self, nparts):
        be = get_backend("multi_sim").configure(nparts=nparts)
        with use_backend("multi_sim"):
            with sz.sanitized() as san:
                _workload()
                assert san.findings == [], san.report()

    def test_cuda_sim_clean_without_reuse(self):
        with use_backend("cuda_sim"):
            with policy(capture=False):
                with sz.sanitized() as san:
                    _workload()
                    assert san.findings == [], san.report()


# ---------------------------------------------------------------------------
# Static lint unit tests (gbcheck's syntactic rules)
# ---------------------------------------------------------------------------


def _lint(src, relpath):
    """Rules gbcheck reports for one in-memory module, in report order."""
    from repro.analysis import analyze_sources

    return [f.rule for f in analyze_sources({relpath: src}).findings]


class TestLint:
    def test_kernel_without_accesses_flagged(self):
        src = "K = Kernel('k', run, work)\n"
        assert _lint(src, "backends/cuda_sim/kernels.py") == ["kernel-decl"]

    def test_kernel_with_accesses_clean(self):
        src = "K = Kernel('k', run, work, accesses=_reads_all)\n"
        assert _lint(src, "backends/cuda_sim/kernels.py") == []

    def test_argsort_flagged_and_suppressible(self):
        src = "o = np.argsort(keys)\n"
        assert _lint(src, "backends/cpu/spmv.py") == ["argsort"]
        ok = "o = np.argsort(keys)  # gbsan: ok(argsort) -- fallback path\n"
        assert _lint(ok, "backends/cpu/spmv.py") == []

    def test_directive_without_reason_does_not_suppress(self):
        src = "o = np.argsort(keys)  # gbsan: ok(argsort)\n"
        out = _lint(src, "backends/cpu/spmv.py")
        assert out == ["argsort", "suppression-placeholder-reason"]

    def test_placeholder_reason_does_not_suppress(self):
        src = "np.argsort(k)  # gbsan: ok(argsort) -- todo\n"
        out = _lint(src, "backends/cpu/spmv.py")
        assert out == ["argsort", "suppression-placeholder-reason"]

    def test_directive_inside_docstring_does_not_suppress(self):
        src = (
            '"""Example: # gbsan: ok(argsort) -- cold fallback path, not kernel-hot"""\n'
            "o = np.argsort(k)\n"
        )
        assert _lint(src, "backends/cpu/spmv.py") == ["argsort"]

    def test_container_mutation_flagged(self):
        src = "c.values[k] = v\n"
        assert _lint(src, "core/vector.py") == ["container-mutation"]

    def test_heavy_numpy_in_orchestrator_flagged(self):
        src = "s = np.searchsorted(rows, x)\n"
        assert "uncharged-numpy" in _lint(src, "backends/multi_sim/backend.py")

    def test_out_of_scope_files_unlinted(self):
        src = "o = np.argsort(keys)\nc.values[k] = v\n"
        assert _lint(src, "testing/programs.py") == []

    def test_fused_kernel_without_accesses_flagged_everywhere(self):
        # Fused kernels are emitted by the lazy optimizer; an undeclared one
        # is flagged no matter which module instantiates it.
        src = "K = Kernel('ewise_reduce_fused_v', run, work)\n"
        assert _lint(src, "testing/helpers.py") == ["fused-kernel-decl"]
        out = _lint(src, "backends/cuda_sim/kernels.py")
        assert set(out) == {"kernel-decl", "fused-kernel-decl"}

    def test_fused_kernel_with_accesses_clean(self):
        src = "K = Kernel('fill_ewise_fused_v', run, work, accesses=_reads_all)\n"
        assert _lint(src, "lazy/passes.py") == []

    def test_lazy_package_held_to_backend_rules(self):
        src = "o = np.argsort(keys)\nK = Kernel('k', run, work)\n"
        assert set(_lint(src, "lazy/schedule.py")) == {"argsort", "kernel-decl"}

    def test_repo_tree_is_clean(self):
        from pathlib import Path

        from repro.analysis import analyze_tree

        root = Path(gb.__file__).resolve().parent
        assert analyze_tree(root).findings == []
