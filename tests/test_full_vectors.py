"""Full vectors: a vector with every entry present is stored, uploaded,
gathered and replicated as its values alone.

The form follows from ``nvals == size`` (``size > 0``); every result stays
bit-identical to the sparse form's, and every byte charge reads the stored
form of the vector it charges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
import repro.backends.cuda_sim.backend as cuda_sim_backend
from repro.backends.cuda_sim.kernels import SPMV_CSR_VECTOR
from repro.containers.sparsevec import SparseVector
from repro.core import operations as ops
from repro.core.assign import assign, assign_scalar
from repro.core.descriptor import Descriptor
from repro.core.monoid import MIN_MONOID, PLUS_MONOID
from repro.core.operators import ABS, AINV, MIN, PLUS, TIMES
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.gpu.device import get_device
from repro.testing.executor import backend_session
from repro.types import FP64, INT64

N = 48


class TestContainer:
    def test_full_holds_no_index_array_until_read(self):
        v = SparseVector.full(N, 1.0, FP64)
        assert v.is_full and v._indices is None
        assert v.nbytes == 8 * N
        assert v.get(5) == 1.0
        np.testing.assert_array_equal(v.to_dense(), np.ones(N))
        assert v.present_mask().all()
        v.validate()
        assert v._indices is None
        idx = v.indices
        np.testing.assert_array_equal(idx, np.arange(N))
        assert v.indices is idx  # built once, kept
        assert v.nbytes == 8 * N  # the stored form is still values only

    def test_every_constructor_reaches_the_full_form(self):
        order = np.random.default_rng(0).permutation(N)
        built = SparseVector.from_lists(N, order, order.astype(np.float64), FP64)
        dense = SparseVector.from_dense(np.arange(1, N + 1, dtype=np.int64), INT64)
        copy = built.copy()
        for v in (built, dense, copy, built.astype(INT64)):
            assert v.is_full and v._indices is None
            assert v.nbytes == v.values.nbytes
        np.testing.assert_array_equal(built.values, np.arange(N, dtype=np.float64))
        copy.values[0] = 9.0  # the copy shares no values with its source
        assert built.values[0] == 0.0 and copy.get(0) == 9.0

    def test_sparse_form_is_unchanged(self):
        v = SparseVector(N, np.arange(N - 1), np.ones(N - 1), FP64)
        assert v.nbytes == 16 * (N - 1)
        assert v.get(N - 1) is None
        np.testing.assert_array_equal(v.indices, np.arange(N - 1))
        assert SparseVector.empty(0, FP64).nbytes == 0

    def test_set_element_keeps_the_form(self):
        w = gb.Vector.full(1.0, N, FP64)
        w[3] = 4.0
        assert w.container.is_full and w[3] == 4.0
        assert w == gb.Vector.from_lists(range(N), [4.0 if i == 3 else 1.0 for i in range(N)], N)
        assert w != gb.Vector.full(1.0, N, FP64)


def test_upload_of_a_full_vector_moves_its_values():
    with backend_session("cuda_sim"):
        u = gb.Vector.full(1.0, N, FP64)
        w = gb.Vector.sparse(FP64, N)
        ops.apply(w, u, AINV)
        w.nvals
        h2d = [r.bytes for r in get_device().profiler.records if r.kind == "h2d"]
    assert h2d == [8 * N]


@pytest.fixture
def spmv_launches(monkeypatch):
    """Every ``spmv_csr_vector`` record of cuda_sim with its launch args."""
    seen = []
    real = cuda_sim_backend.launch

    def spy(kernel, cfg, *args, device=None, **kw):
        recs = device._profiler.records
        n = len(recs)
        out = real(kernel, cfg, *args, device=device, **kw)
        if kernel.name == SPMV_CSR_VECTOR.name:
            seen.append((recs[n], args))
        return out

    monkeypatch.setattr(cuda_sim_backend, "launch", spy)
    return seen


@pytest.mark.parametrize("present", [N, int(N * 0.9)], ids=["full", "90pct"])
def test_pull_gather_reads_the_stored_form(spmv_launches, present):
    a = gb.generators.erdos_renyi_gnm(N, 6 * N, seed=1, weighted=True)
    idx = np.arange(present)
    with backend_session("cuda_sim:lanes=vector"):
        u = gb.Vector.from_lists(idx, idx + 1.0, N, FP64)
        w = gb.Vector.sparse(FP64, N)
        ops.mxv(w, a, u, PLUS_TIMES, direction="pull")
        w.nvals
    [(rec, args)] = spmv_launches
    csr = args[0]
    nnz, item = csr.nvals, csr.type.nbytes
    per_lookup = 8 if present == N else 16  # by position, else a binary probe
    reads = 2 * csr.nrows * 8 + nnz * (8 + item) + nnz * per_lookup
    work = SPMV_CSR_VECTOR.work(*args)
    assert work.bytes_read == reads
    assert rec.bytes == reads + csr.nrows * (8 + 8)


def test_allgather_of_a_sliced_full_vector_charges_its_values():
    a = gb.generators.erdos_renyi_gnm(N, 4 * N, seed=2)
    with backend_session("multi_sim:2:equal_rows") as be:
        u = gb.Vector.full(1.5, N, FP64)
        sliced = gb.Vector.sparse(FP64, N)
        ops.apply(sliced, u, AINV)  # a sharded result: each device holds half
        w = gb.Vector.sparse(FP64, N)
        ops.mxv(w, a, sliced, PLUS_TIMES, direction="pull")  # gathers it whole
        w.nvals
        stats = be.cluster.comm.stats
        assert stats.counts["allgather"] == 1
        assert stats.bytes["allgather"] == 8 * N
        assert sliced.container.is_full


# ---------------------------------------------------------------------------
# Bit identity: full operands and masks on every simulated spec vs cpu
# ---------------------------------------------------------------------------

SPECS = (
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:2:equal_rows",
    "multi_sim:2:equal_rows:lazy=off",
)


def _run(spec, graph, x, y, y_keep, m):
    """Every op over full operands and masks; results as plain data."""
    n = graph.nrows
    out = []

    def vec(v):
        c = v.container
        return (c.size, c.indices.tolist(), c.values.tolist(), str(c.values.dtype))

    pos = np.arange(n)
    with backend_session(spec):
        g = gb.Matrix.from_lists(*graph.to_lists(), n, n, FP64)
        u = gb.Vector.from_lists(pos, x, n, FP64)
        v = gb.Vector.from_lists(pos[y_keep], y[y_keep], n, FP64)
        mask = gb.Vector.from_lists(pos, m, n, FP64)
        for direction in ("push", "pull"):
            w = gb.Vector.sparse(FP64, n)
            ops.mxv(w, g, u, PLUS_TIMES, direction=direction)
            out.append(vec(w))
            w = gb.Vector.sparse(FP64, n)
            ops.vxm(w, u, g, MIN_PLUS, mask=mask, direction=direction)
            out.append(vec(w))
        for op in (ops.ewise_add, ops.ewise_mult):
            w = gb.Vector.sparse(FP64, n)
            op(w, u, v, PLUS)
            out.append(vec(w))
            w = gb.Vector.full(0.5, n, FP64)
            op(w, v, u, TIMES, mask=mask, accum=MIN)
            out.append(vec(w))
        w = gb.Vector.sparse(FP64, n)
        ops.apply(w, u, ABS, mask=mask, desc=Descriptor(complement_mask=True))
        out.append(vec(w))
        out.append(float(ops.reduce(u, PLUS_MONOID)))
        out.append(float(ops.reduce(v, MIN_MONOID)))
        w = gb.Vector.full(3.0, n, FP64)
        assign(w, v, mask=mask, accum=PLUS)
        out.append(vec(w))
        w = gb.Vector.sparse(FP64, n)
        assign_scalar(w, 2.0, mask=mask, desc=Descriptor(structural_mask=True))
        out.append(vec(w))
    return out


@st.composite
def full_operands(draw):
    n = draw(st.integers(4, 24))
    # Integer values: every sum is exact, so sharded sums match in any order.
    vals = st.integers(-8, 8).filter(bool).map(float)
    x = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
    # ``y`` full or one entry short; the mask full, some of its values falsy.
    y_keep = np.ones(n, dtype=bool)
    if draw(st.booleans()):
        y_keep[draw(st.integers(0, n - 1))] = False
    m = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**16))
    return n, x, y, y_keep, m, seed


@given(full_operands())
@settings(max_examples=15, deadline=None)
def test_full_operands_are_bit_identical_to_cpu(case):
    n, x, y, y_keep, m, seed = case
    graph = gb.generators.erdos_renyi_gnm(n, 3 * n, seed=seed)
    want = _run("cpu", graph, x, y, y_keep, m)
    for spec in SPECS:
        assert _run(spec, graph, x, y, y_keep, m) == want, spec
