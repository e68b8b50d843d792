"""cuda_sim backend behaviour: residency, transfers, kernel accounting."""

import numpy as np
import pytest

import repro as gb
from repro.backends.cuda_sim.kernels import combine_coalescing
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.gpu.device import get_device, reset_device


@pytest.fixture(autouse=True)
def fresh_device():
    dev = reset_device()
    get_backend("cuda_sim").evict_all()
    yield dev
    reset_device()


def make_inputs(n=64, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A[A < 0.8] = 0.0
    u = rng.random(n)
    return gb.Matrix.from_dense(A), gb.Vector.from_dense(u)


class TestResidency:
    def test_first_use_uploads(self):
        a, u = make_inputs()
        dev = get_device()
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
        h2d = [r for r in dev.profiler.records if r.kind == "h2d"]
        assert len(h2d) == 2  # matrix + vector

    def test_repeated_use_does_not_reupload(self):
        a, u = make_inputs()
        dev = get_device()
        with use_backend("cuda_sim"):
            for _ in range(3):
                w = gb.Vector.sparse(gb.FP64, 64)
                ops.mxv(w, a, u, PLUS_TIMES)
        h2d = [r for r in dev.profiler.records if r.kind == "h2d"]
        assert len(h2d) == 2  # still just the first two uploads

    def test_results_are_device_resident(self):
        # Chained ops: result of one op feeds the next without re-upload.
        a, u = make_inputs()
        dev = get_device()
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
            w2 = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w2, a, w, PLUS_TIMES)
        h2d = [r for r in dev.profiler.records if r.kind == "h2d"]
        # a, u uploaded; the merged result of the first mxv is a *new*
        # container produced by the frontend pipeline, so it uploads once.
        assert len(h2d) <= 3

    def test_evict_all_forces_reupload(self):
        a, u = make_inputs()
        be = get_backend("cuda_sim")
        dev = get_device()
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
            be.evict_all()
            w2 = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w2, a, u, PLUS_TIMES)
        h2d = [r for r in dev.profiler.records if r.kind == "h2d"]
        assert len(h2d) == 4


class TestKernelAccounting:
    def test_mxv_launches_spmv_kernel(self):
        a, u = make_inputs()
        dev = get_device()
        with use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, 64)
            ops.mxv(w, a, u, PLUS_TIMES)
        names = {r.name for r in dev.profiler.records if r.kind == "kernel"}
        assert names & {"spmv_csr_vector", "spmsv_push"}

    def test_mxm_launches_spgemm(self):
        a, _ = make_inputs()
        dev = get_device()
        with use_backend("cuda_sim"):
            c = gb.Matrix.sparse(gb.FP64, 64, 64)
            ops.mxm(c, a, a, PLUS_TIMES)
        names = {r.name.split("[", 1)[0] for r in dev.profiler.records if r.kind == "kernel"}
        assert "spgemm_hash" in names

    def test_kernel_time_grows_with_size(self):
        times = []
        for n in (64, 256):
            reset_device()
            get_backend("cuda_sim").evict_all()
            rng = np.random.default_rng(1)
            A = rng.random((n, n))
            A[A < 0.9] = 0.0
            a = gb.Matrix.from_dense(A)
            u = gb.Vector.from_dense(rng.random(n))
            with use_backend("cuda_sim"):
                w = gb.Vector.sparse(gb.FP64, n)
                ops.mxv(w, a, u, PLUS_TIMES)
            times.append(get_device().profiler.kernel_time_us)
        assert times[1] > times[0]

    def test_bfs_runs_entirely_on_device(self):
        g = gb.generators.rmat(scale=6, edge_factor=4, seed=5)
        dev = get_device()
        with use_backend("cuda_sim"):
            gb.algorithms.bfs_levels(g, 0)
        assert dev.profiler.launch_count > 0
        assert dev.clock_us > 0


class TestCombineCoalescing:
    def test_single_class(self):
        total, f = combine_coalescing([(100.0, "sequential")])
        assert total == 100.0 and f == 1.0

    def test_mixed_preserves_time(self):
        parts = [(100.0, "sequential"), (100.0, "gather")]
        total, f = combine_coalescing(parts)
        assert total == 200.0
        # time ∝ total·f must equal the sum of per-part times Σ bytes_i·f_i.
        assert total * f == pytest.approx(100.0 * 1.0 + 100.0 * 8.0)

    def test_empty(self):
        total, f = combine_coalescing([])
        assert total == 0.0 and f == 1.0
