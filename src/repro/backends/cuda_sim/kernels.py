"""Device kernels of the simulated CUDA backend.

Each kernel pairs the semantic computation (shared with the CPU backend's
vectorized kernels — the simulation's "device code") with a *work estimator*
that inspects the actual operands and reports FLOPs, bytes by access class,
thread count, and SIMT divergence, from which the cost model derives the
simulated duration.  The kernel structures mirror what GBTL-CUDA used via
CUSP:

- ``spmv_csr_vector`` — warp-per-row CSR SpMV (pull);
- ``spmsv_push`` — frontier-expansion scatter SpMSpV (push);
- ``spgemm_hash`` — block-per-row hash SpGEMM;
- ``ewise_map`` / ``apply_map`` — flat elementwise maps;
- ``reduce_tree`` — tree reduction;
- ``transpose_countsort`` — counting-sort transpose.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ...containers.bitmap import locate
from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.monoid import Monoid
from ...gpu import loadbalance
from ...gpu.costmodel import KernelWork
from ...gpu.kernel import Kernel
from ...sanitizer.access import Access
from ...gpu.simt import COALESCING, divergence_warp_per_row
from ...core.descriptor import DEFAULT
from ...types import GrBType
from ..base import frontier_assign
from ..cpu.ewise import ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec
from ..cpu.reduce_apply import apply_mat, apply_vec, reduce_mat_vector
from ..cpu.spgemm import spgemm_esr
from ..cpu.spmv import row_gather_product, scatter_product, take_ranges

__all__ = [
    "combine_coalescing",
    "compact_items",
    "mask_restrict",
    "SPMV_CSR_VECTOR",
    "SPMSV_PUSH",
    "SPMV_PUSH_FUSED",
    "SPMV_PULL_FUSED",
    "SPGEMM_HASH",
    "EWISE_ADD_V",
    "EWISE_MULT_V",
    "EWISE_ADD_M",
    "EWISE_MULT_M",
    "EWISE_APPLY_FUSED_V",
    "EWISE_REDUCE_FUSED_V",
    "FILL_EWISE_FUSED_V",
    "APPLY_V",
    "APPLY_M",
    "REDUCE_TREE",
    "REDUCE_ROWS",
    "TRANSPOSE_COUNTSORT",
    "STREAM_COMPACT_MERGE",
]


def combine_coalescing(parts: Iterable[Tuple[float, str]]) -> Tuple[float, float]:
    """Fold (bytes, access-class) parts into (total_bytes, effective factor).

    The cost model divides bandwidth by one factor, so transfer time is
    ``total · factor / bw``; the byte-weighted mean of the per-class factors
    preserves the summed per-part times: ``total · f_eff = Σ bytes_i · f_i``.
    """
    total = 0.0
    weighted = 0.0
    for nbytes, klass in parts:
        f = COALESCING[klass]
        total += nbytes
        weighted += nbytes * f
    if total <= 0.0:
        return 0.0, 1.0
    return total, weighted / total


_IDX = 8  # bytes per index (int64)


def _entry_bytes(x, item: int) -> int:
    """Bytes one stored entry of operand ``x`` moves at value width ``item``.

    A full vector is stored, and read by position, as its values alone;
    every other operand (a sparse vector, a matrix) pairs each value with
    its index.
    """
    return item if isinstance(x, SparseVector) and x.is_full else item + _IDX


def _stream_bytes(x, y, item: int) -> float:
    """Bytes an element-wise kernel reads streaming both operands' entries."""
    return float(x.nvals) * _entry_bytes(x, item) + float(y.nvals) * _entry_bytes(y, item)


def _reads_all(*args, **kwargs) -> Access:
    """Access declaration: every container operand is read, none written.

    All kernels in this backend are functional — they build fresh output
    containers rather than mutating operands — so the read set is exactly
    the container-like launch args (the sanitizer's tracking predicate
    filters out semirings, scalars, and ``None`` masks).
    """
    return Access(reads=tuple(args) + tuple(kwargs.values()))


def _no_declared_access(*args, **kwargs) -> Access:
    """Operands reach this kernel through thunks/arrays; the launch site
    declares them via ``san_reads``/``san_writes``."""
    return Access()


# ---------------------------------------------------------------------------
# Skew-aware lane scheduling (see repro.gpu.loadbalance)
# ---------------------------------------------------------------------------
#
# The row-structured kernels (SpMV/SpMSpV/frontier/SpGEMM) each have a
# *native* lane — the single strategy the seed kernels modeled.  Each one's
# work estimator is the one place its lane is decided: it hands the per-row
# work it schedules (row lengths; per-row FLOPs for SpGEMM) to
# repro.gpu.loadbalance under the current policy, prices the chosen lane's
# schedule, and reports a non-native lane in KernelWork.lane, which the
# launch turns into the record's "name[lane]" label.  So a launch is
# labelled by the lane it is priced on, and a direct ``K.work(...)`` call
# prices exactly what the backend launches.  Forcing a kernel's native lane
# reproduces the pre-lanes estimate bit for bit.


def _lane_sched(lens, native: str, nnz_max=None, threads_per_row: int = 32):
    """Decide the lane for rows of ``lens`` work and schedule it.

    ``nnz_max`` is the rows' cached maximum when there is one (a
    short-circuit for uniformly short rows).  Returns ``(schedule, lane)``
    with ``lane`` None when the decision is the native lane.
    """
    lane = loadbalance.choose_lanes(lens, nnz_max=nnz_max, native=native)
    sched = loadbalance.schedule(lens, lane, threads_per_row=threads_per_row)
    return sched, (None if lane == native else lane)


# ---------------------------------------------------------------------------
# SpMV — warp-per-row CSR-vector kernel (pull direction)
# ---------------------------------------------------------------------------


def _spmv_run(a, u, semiring, out_type, flip, rows):
    return row_gather_product(a, u, semiring, out_type, flip=flip, rows=rows)


def _spmv_work(
    a: CSRMatrix, u: SparseVector, semiring, out_type, flip, rows
) -> KernelWork:
    if rows is None:
        # The full matrix: its degree stats are version-cached.
        lens = a.row_degrees()
        nrows = a.nrows
        sched, lane = _lane_sched(lens, "vector", a.row_nnz_max())
    else:
        lens = a.indptr[np.asarray(rows) + 1] - a.indptr[np.asarray(rows)]
        nrows = len(rows)
        sched, lane = _lane_sched(lens, "vector")
    nnz = float(lens.sum())
    item = a.type.nbytes
    reads, coal = combine_coalescing(
        [
            (2.0 * nrows * _IDX, "sequential"),  # indptr
            (nnz * (_IDX + item), "segmented"),  # column indices + values
            # x[col] lookups: by position into a full x, else a binary probe
            (nnz * _entry_bytes(u, u.type.nbytes), "gather"),
            *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
        ]
    )
    written = float(nrows) * (out_type.nbytes + _IDX)
    return KernelWork(
        flops=2.0 * nnz,
        bytes_read=reads,
        bytes_written=written,
        threads=sched.threads if nrows else nrows * 32,
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPMV_CSR_VECTOR = Kernel("spmv_csr_vector", _spmv_run, _spmv_work, accesses=_reads_all)


# ---------------------------------------------------------------------------
# SpMSpV — frontier-expansion push kernel
# ---------------------------------------------------------------------------


def _mask_keep_fraction(mask, desc) -> float:
    """Expected fraction of expanded entries the effective mask lets through.

    A density estimate (the kernel would know only the mask bitmap, not the
    expansion): truthy coverage of the output space, complemented if asked.
    """
    if mask is None:
        return 1.0
    truthy = mask.nvals if desc.structural_mask else int(np.count_nonzero(mask.values))
    frac = truthy / max(mask.size, 1)
    if desc.complement_mask:
        frac = 1.0 - frac
    return min(max(frac, 0.02), 1.0)


def _spmsv_run(csr, u, semiring, out_type, flip, mask=None, desc=DEFAULT):
    return scatter_product(
        csr, u, semiring, out_type, flip=flip, mask=mask, desc=desc
    )


def _spmsv_work(
    csr: CSRMatrix, u: SparseVector, semiring, out_type, flip, mask=None, desc=DEFAULT
) -> KernelWork:
    # The frontier rows' degrees: an O(frontier) indptr lookup.
    lens = csr.indptr[u.indices + 1] - csr.indptr[u.indices]
    expanded = float(lens.sum())
    item = csr.type.nbytes
    sched, lane = _lane_sched(lens, "scalar")
    read_parts = [
        (2.0 * u.nvals * _IDX, "gather"),  # indptr probes at frontier rows
        (expanded * (_IDX + item), "segmented"),  # expanded row slices
        *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
    ]
    if mask is not None:
        read_parts.append((expanded * 1.0, "gather"))  # mask bitmap probes
    reads, coal_r = combine_coalescing(read_parts)
    # Scattered combine of duplicates (atomics on the output) — with an
    # in-kernel mask only the surviving entries are ever written, which is
    # the fusion win: atomic traffic scales with the unvisited set.
    kept = expanded * _mask_keep_fraction(mask, desc)
    writes, coal_w = combine_coalescing([(kept * (out_type.nbytes + _IDX), "atomic")])
    total = reads + writes
    coal = (reads * coal_r + writes * coal_w) / total if total else 1.0
    return KernelWork(
        flops=2.0 * kept,
        bytes_read=reads,
        bytes_written=writes,
        threads=sched.threads,
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPMSV_PUSH = Kernel("spmsv_push", _spmsv_run, _spmsv_work, accesses=_reads_all)


# ---------------------------------------------------------------------------
# Fused BFS frontier step — level assign + masked SpMSpV + merge, one launch
# ---------------------------------------------------------------------------
#
# The BFS loop body is three device ops (scatter levels, masked product,
# frontier merge).  A real GPU BFS runs them as one kernel: each frontier
# thread writes its level, expands its row, and test-and-sets unvisited
# neighbours.  The fused kernels reproduce that: one launch per hop instead
# of three, and the intermediate frontier products never travel through
# global memory as a standalone vector.


def _frontier_push_run(levels, frontier, a, value, semiring, desc):
    from ...core.accumulate import merge_vector

    new_levels = frontier_assign(levels, frontier, value)
    out_t = semiring.result_type(frontier.type, a.type)
    t = scatter_product(
        a, frontier, semiring, out_t, flip=True, mask=new_levels, desc=desc
    )
    return new_levels, merge_vector(frontier, t, new_levels, None, desc)


def _frontier_push_work(levels, frontier, a, value, semiring, desc) -> KernelWork:
    lens = a.indptr[frontier.indices + 1] - a.indptr[frontier.indices]
    expanded = float(lens.sum())
    item = a.type.nbytes
    kept = expanded * _mask_keep_fraction(levels, desc)
    sched, lane = _lane_sched(lens, "scalar")
    reads, coal_r = combine_coalescing(
        [
            (2.0 * frontier.nvals * _IDX, "gather"),  # indptr probes
            (expanded * (_IDX + item), "segmented"),  # row slices
            (expanded * 1.0, "gather"),  # visited-bitmap probes
            *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
        ]
    )
    writes, coal_w = combine_coalescing(
        [
            (kept * (frontier.type.nbytes + _IDX), "atomic"),  # frontier updates
            (frontier.nvals * (levels.type.nbytes + _IDX), "scatter"),  # levels
        ]
    )
    total = reads + writes
    coal = (reads * coal_r + writes * coal_w) / total if total else 1.0
    return KernelWork(
        flops=2.0 * kept + frontier.nvals,
        bytes_read=reads,
        bytes_written=writes,
        threads=sched.threads,
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPMV_PUSH_FUSED = Kernel(
    "spmv_push_fused", _frontier_push_run, _frontier_push_work, accesses=_reads_all
)


def _frontier_pull_run(levels, frontier, tcsr, value, semiring, desc):
    from ...core.accumulate import merge_vector
    from ..cpu.spmv import mask_pull_rows

    new_levels = frontier_assign(levels, frontier, value)
    out_t = semiring.result_type(frontier.type, tcsr.type)
    rows = mask_pull_rows(new_levels, desc, tcsr.nrows)
    t = row_gather_product(tcsr, frontier, semiring, out_t, flip=True, rows=rows)
    return new_levels, merge_vector(frontier, t, new_levels, None, desc)


def _frontier_pull_work(levels, frontier, tcsr, value, semiring, desc) -> KernelWork:
    # Pull over the unvisited rows only (the kernel skips settled vertices).
    unvisited = max(tcsr.nrows - levels.nvals - frontier.nvals, 1)
    lens = tcsr.row_degrees()
    nnz_frac = unvisited / max(tcsr.nrows, 1)
    nnz = float(lens.sum()) * nnz_frac
    item = tcsr.type.nbytes
    # Divergence follows the full degree distribution (the unvisited set is
    # a structural sample of it); threads scale the lane schedule down to
    # the unvisited fraction the kernel actually covers.
    sched, lane = _lane_sched(lens, "vector", tcsr.row_nnz_max())
    reads, coal = combine_coalescing(
        [
            (2.0 * unvisited * _IDX, "sequential"),  # indptr
            (nnz * (_IDX + item), "segmented"),  # columns + values
            # frontier probes
            (nnz * _entry_bytes(frontier, frontier.type.nbytes), "gather"),
            *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
        ]
    )
    writes = float(unvisited) * (frontier.type.nbytes + _IDX) + frontier.nvals * (
        levels.type.nbytes + _IDX
    )
    return KernelWork(
        flops=2.0 * nnz + frontier.nvals,
        bytes_read=reads,
        bytes_written=writes,
        threads=max(int(round(sched.threads * nnz_frac)), 1),
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPMV_PULL_FUSED = Kernel(
    "spmv_pull_fused", _frontier_pull_run, _frontier_pull_work, accesses=_reads_all
)


# ---------------------------------------------------------------------------
# Fused elementwise + apply — one pass, one launch
# ---------------------------------------------------------------------------


def _ewise_apply_run_v(u, v, binop, unop, union):
    t = ewise_add_vec(u, v, binop) if union else ewise_mult_vec(u, v, binop)
    return apply_vec(t, unop)


def _ewise_apply_work(x, y, binop, unop, union) -> KernelWork:
    n = float(x.nvals + y.nvals)
    n_out = n if union else float(min(x.nvals, y.nvals))
    item = max(x.type.nbytes, y.type.nbytes)
    reads, coal = combine_coalescing([(_stream_bytes(x, y, item), "sequential")])
    # One launch and one output pass — the separate ewise+apply pair writes
    # the intermediate and immediately re-reads it; fusing erases that round
    # trip (and one launch latency).
    return KernelWork(
        flops=n + n_out,
        bytes_read=reads,
        bytes_written=n_out * (item + _IDX),
        threads=max(int(n), 1),
        divergence=1.0,
        coalescing=coal,
    )


EWISE_APPLY_FUSED_V = Kernel(
    "ewise_apply_fused_v", _ewise_apply_run_v, _ewise_apply_work, accesses=_reads_all
)


# ---------------------------------------------------------------------------
# Lazy-optimizer fused kernels — elementwise chains collapsed to one launch
# ---------------------------------------------------------------------------


def mask_restrict(container: SparseVector, mask: SparseVector) -> SparseVector:
    """Restrict ``container`` to the stored indices of ``mask``.

    Used by mask sinking: the stored-index set is a superset of the
    mask-true positions, and the downstream merge re-filters exactly, so
    the restriction is value-safe for non-complemented masks regardless of
    accumulator or replace.  Returns ``container`` unchanged when the
    restriction cannot shrink it (sinking then costs nothing).
    """
    if mask.nvals >= container.nvals or container.nvals == 0:
        return container
    keep = locate(mask.indices, container.indices, container.size)[0]
    if keep.all():
        return container
    return SparseVector(
        container.size, container.indices[keep], container.values[keep], container.type
    )


def _ewise_reduce_run_v(u, v, binop, unop, union, monoid, out_type):
    t = ewise_add_vec(u, v, binop) if union else ewise_mult_vec(u, v, binop)
    if unop is not None:
        t = apply_vec(t, unop)
    # Cast to the destination type *inside* the kernel: the eager pipeline
    # reduces the merged (already-cast) container, so reducing pre-cast
    # values would diverge bitwise on domain-narrowing outputs.
    t = t.astype(out_type)
    val = monoid.result_type(t.type).cast(monoid.reduce_array(t.values, t.type))
    return t, val


def _ewise_reduce_work(u, v, binop, unop, union, monoid, out_type) -> KernelWork:
    n = float(u.nvals + v.nvals)
    n_out = n if union else float(min(u.nvals, v.nvals))
    item = max(u.type.nbytes, v.type.nbytes)
    reads, coal = combine_coalescing([(_stream_bytes(u, v, item), "sequential")])
    # The separate ewise + reduce_tree pair writes the intermediate and
    # immediately re-reads it (2·n_out·item in the tree's first pass);
    # fusing keeps partials in registers/shared memory, so only the ewise
    # input traffic and the block-level reduction partials remain.
    flops = n + n_out + (n_out if unop is not None else 0.0)
    return KernelWork(
        flops=flops,
        bytes_read=reads,
        bytes_written=n_out * (item + _IDX)
        + max(n_out / 256.0, 1.0) * out_type.nbytes,
        threads=max(int(n), 1),
        divergence=1.0,
        coalescing=coal,
    )


EWISE_REDUCE_FUSED_V = Kernel(
    "ewise_reduce_fused_v", _ewise_reduce_run_v, _ewise_reduce_work, accesses=_reads_all
)


def _fill_ewise_run_v(value, size, fill_type, other, binop, fill_first):
    # The fill operand is generated in registers — a dense constant vector
    # never touches device memory as a standalone container.
    fill = SparseVector.full(int(size), fill_type.cast(value), fill_type)
    if fill_first:
        return ewise_add_vec(fill, other, binop)
    return ewise_add_vec(other, fill, binop)


def _fill_ewise_work(value, size, fill_type, other, binop, fill_first) -> KernelWork:
    n = float(size)
    m = float(other.nvals)
    item = max(fill_type.nbytes, other.type.nbytes)
    reads, coal = combine_coalescing([(m * _entry_bytes(other, item), "sequential")])
    # Eager would scatter-assign n fill entries, then stream n+m entries
    # through the union; fused, the constant operand costs no memory
    # traffic at all — only the sparse operand is read.
    return KernelWork(
        flops=n + m,
        bytes_read=reads,
        bytes_written=n * (item + _IDX),
        threads=max(int(n), 1),
        divergence=1.0,
        coalescing=coal,
    )


FILL_EWISE_FUSED_V = Kernel(
    "fill_ewise_fused_v", _fill_ewise_run_v, _fill_ewise_work, accesses=_reads_all
)


# ---------------------------------------------------------------------------
# SpGEMM — hash-per-row kernel
# ---------------------------------------------------------------------------


def _spgemm_run(a, b, semiring, out_type):
    return spgemm_esr(a, b, semiring, out_type)


def _spgemm_schedule(a: CSRMatrix, b: CSRMatrix):
    """Per-A-entry expansion lengths, and the lane schedule of a block-per-row
    kernel over the per-output-row FLOPs they sum to (the lane is decided
    from the work it is priced on, not from A's degrees)."""
    _, lens = take_ranges(b.indptr, a.indices)
    row_flops = np.zeros(a.nrows, dtype=np.float64)
    if a.nvals:
        np.add.at(row_flops, a.row_ids(), lens.astype(np.float64))
    sched, lane = _lane_sched(row_flops, "scalar", threads_per_row=64)
    return lens, sched, lane


def _spgemm_work(a: CSRMatrix, b: CSRMatrix, semiring, out_type) -> KernelWork:
    # FLOPs: one multiply+add per expanded partial product.
    lens, sched, lane = _spgemm_schedule(a, b)
    expanded = float(lens.sum())
    item = a.type.nbytes
    reads, coal = combine_coalescing(
        [
            (a.nvals * (_IDX + item), "segmented"),  # A entries
            (expanded * (_IDX + item), "gather"),  # B row slices per A entry
            *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
        ]
    )
    writes = expanded * (out_type.nbytes + _IDX)  # hash-table updates
    total = reads + writes
    coal = (reads * coal + writes * COALESCING["atomic"]) / total if total else 1.0
    return KernelWork(
        flops=2.0 * expanded,
        bytes_read=reads,
        bytes_written=writes,
        threads=sched.threads,
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPGEMM_HASH = Kernel("spgemm_hash", _spgemm_run, _spgemm_work, accesses=_reads_all)


def _spgemm_masked_run(a, b, semiring, out_type, allowed_keys):
    from ..cpu.spgemm import spgemm_masked_esr

    return spgemm_masked_esr(a, b, semiring, out_type, allowed_keys)


def _spgemm_masked_work(
    a: CSRMatrix, b: CSRMatrix, semiring, out_type, allowed_keys
) -> KernelWork:
    """Masked hash SpGEMM: probes still expand every partial product, but
    hash-table writes only happen at mask positions, so write traffic (the
    atomic, worst-coalesced part) scales with the mask instead of the
    expansion."""
    lens, sched, lane = _spgemm_schedule(a, b)
    expanded = float(lens.sum())
    item = a.type.nbytes
    reads, coal_r = combine_coalescing(
        [
            (a.nvals * (_IDX + item), "segmented"),  # A entries
            (expanded * (_IDX + item), "gather"),  # B row slices
            (expanded * _IDX, "gather"),  # mask membership probes
            *sched.extra_read_parts,  # lane bookkeeping (bins / merge path)
        ]
    )
    # Writes bounded by mask size (each allowed key updated ~a few times).
    writes = min(float(allowed_keys.size) * 4.0, max(expanded, 1.0)) * (
        out_type.nbytes + _IDX
    )
    total = reads + writes
    coal = (reads * coal_r + writes * COALESCING["atomic"]) / total if total else 1.0
    return KernelWork(
        flops=2.0 * expanded,
        bytes_read=reads,
        bytes_written=writes,
        threads=sched.threads,
        divergence=sched.divergence,
        coalescing=coal,
        lane=lane,
    )


SPGEMM_HASH_MASKED = Kernel(
    "spgemm_hash_masked", _spgemm_masked_run, _spgemm_masked_work, accesses=_reads_all
)


# ---------------------------------------------------------------------------
# Elementwise maps
# ---------------------------------------------------------------------------


def _ewise_work(a, b, op) -> KernelWork:
    """Two sparse vectors or two CSR matrices: stream both entry lists."""
    n = float(a.nvals + b.nvals)
    item = max(a.type.nbytes, b.type.nbytes)
    reads, coal = combine_coalescing([(_stream_bytes(a, b, item), "sequential")])
    return KernelWork(
        flops=n,
        bytes_read=reads,
        bytes_written=n * (item + _IDX),
        threads=max(int(n), 1),
        divergence=1.0,
        coalescing=coal,
    )


EWISE_ADD_V = Kernel(
    "ewise_add_v", lambda u, v, op: ewise_add_vec(u, v, op), _ewise_work,
    accesses=_reads_all,
)
EWISE_MULT_V = Kernel(
    "ewise_mult_v", lambda u, v, op: ewise_mult_vec(u, v, op), _ewise_work,
    accesses=_reads_all,
)
EWISE_ADD_M = Kernel(
    "ewise_add_m", lambda a, b, op: ewise_add_mat(a, b, op), _ewise_work,
    accesses=_reads_all,
)
EWISE_MULT_M = Kernel(
    "ewise_mult_m", lambda a, b, op: ewise_mult_mat(a, b, op), _ewise_work,
    accesses=_reads_all,
)


# ---------------------------------------------------------------------------
# Apply, reduce, transpose
# ---------------------------------------------------------------------------


def _apply_work(a, op) -> KernelWork:
    """A sparse vector or a CSR matrix: map over its stored values."""
    n = float(a.nvals)
    item = a.type.nbytes
    return KernelWork(
        flops=n,
        bytes_read=n * item,
        bytes_written=n * item,
        threads=max(int(n), 1),
    )


APPLY_V = Kernel("apply_v", lambda u, op: apply_vec(u, op), _apply_work, accesses=_reads_all)
APPLY_M = Kernel("apply_m", lambda a, op: apply_mat(a, op), _apply_work, accesses=_reads_all)


def _reduce_tree_run(values: np.ndarray, monoid: Monoid, typ: GrBType):
    return monoid.reduce_array(values, typ)


def _reduce_tree_work(values: np.ndarray, monoid, typ) -> KernelWork:
    n = float(values.size)
    item = values.dtype.itemsize
    # log2(n) passes, but bytes dominated by the first: charge 2n reads.
    return KernelWork(
        flops=n,
        bytes_read=2.0 * n * item,
        bytes_written=max(n / 256.0, 1.0) * item,
        threads=max(int(n), 1),
    )


REDUCE_TREE = Kernel(
    "reduce_tree", _reduce_tree_run, _reduce_tree_work, accesses=_no_declared_access
)


def _reduce_rows_work(a: CSRMatrix, monoid) -> KernelWork:
    lens = a.row_degrees()
    n = float(a.nvals)
    item = a.type.nbytes
    return KernelWork(
        flops=n,
        bytes_read=n * item + a.nrows * 2 * _IDX,
        bytes_written=a.nrows * (item + _IDX),
        threads=max(a.nrows, 1) * 32,
        divergence=divergence_warp_per_row(lens),
    )


REDUCE_ROWS = Kernel(
    "reduce_rows", lambda a, monoid: reduce_mat_vector(a, monoid), _reduce_rows_work,
    accesses=_reads_all,
)


def _transpose_work(a: CSRMatrix) -> KernelWork:
    n = float(a.nvals)
    item = a.type.nbytes
    reads, coal = combine_coalescing(
        [
            (n * (_IDX + item), "sequential"),
            (n * (_IDX + item), "scatter"),  # counting-sort scatter phase
        ]
    )
    return KernelWork(
        flops=n,
        bytes_read=reads / 2,
        bytes_written=reads / 2,
        threads=max(int(n), 1),
        coalescing=coal,
    )


# The semantic function is the container memo: host readers of
# ``cached_transpose()`` and the device derivation share one counting sort
# per matrix version.
TRANSPOSE_COUNTSORT = Kernel(
    "transpose_countsort",
    lambda a: a.cached_transpose(),
    _transpose_work,
    accesses=_reads_all,
)


# ---------------------------------------------------------------------------
# Extract (gather) and assign (scatter) accounting kernels
# ---------------------------------------------------------------------------


def _gather_work(n_lookups: float, item: int) -> KernelWork:
    reads, coal = combine_coalescing([(n_lookups * (item + _IDX), "gather")])
    return KernelWork(
        flops=n_lookups,
        bytes_read=reads,
        bytes_written=n_lookups * (item + _IDX),
        threads=max(int(n_lookups), 1),
        coalescing=coal,
    )


def _thunk_run(fn, n, item):
    # The run arg is a thunk computing the semantics; n/item size the work.
    return fn()


GATHER = Kernel(
    "gather_extract", _thunk_run, lambda fn, n, item: _gather_work(n, item),
    accesses=_no_declared_access,
)


def _scatter_work(nvals: float, item: int) -> KernelWork:
    writes, coal = combine_coalescing([(nvals * (item + _IDX), "scatter")])
    return KernelWork(
        flops=nvals,
        bytes_read=nvals * (item + _IDX),
        bytes_written=writes,
        threads=max(int(nvals), 1),
        coalescing=coal,
    )


SCATTER_ASSIGN = Kernel(
    "scatter_assign", lambda n, item: None, lambda n, item: _scatter_work(n, item),
    accesses=_no_declared_access,
)


def _select_work(nvals: float, item: int) -> KernelWork:
    """select / indexed-apply: stream entries, evaluate predicate, compact
    with a prefix-sum (charged as an extra index pass)."""
    reads, coal = combine_coalescing(
        [
            (nvals * (item + 2 * _IDX), "sequential"),  # values + coords
            (nvals * _IDX, "sequential"),  # prefix-sum pass
        ]
    )
    return KernelWork(
        flops=2.0 * nvals,
        bytes_read=reads,
        bytes_written=nvals * (item + _IDX),
        threads=max(int(nvals), 1),
        coalescing=coal,
    )


SELECT_COMPACT = Kernel(
    "select_compact", _thunk_run, lambda fn, nvals, item: _select_work(nvals, item),
    accesses=_no_declared_access,
)


# ---------------------------------------------------------------------------
# Streaming compaction
# ---------------------------------------------------------------------------


def _compact_merge_run(base, overlay, t):
    from ...streaming.overlay import compact_merge

    return compact_merge(base, overlay, t)


def compact_items(base: CSRMatrix, overlay, t) -> int:
    """Items a compaction merges: A's, plus the carried Aᵀ's when ``t``."""
    n = base.nvals + len(overlay)
    return n if t is None else n + t.nvals + len(overlay)


def _compact_merge_work(base, overlay, t) -> KernelWork:
    nbytes = base.nbytes + overlay.nbytes
    if t is not None:
        nbytes += t.nbytes + overlay.nbytes
    return KernelWork(
        flops=2.0 * compact_items(base, overlay, t),
        bytes_read=float(nbytes),
        bytes_written=float(nbytes),
    )


# Device-side merge of base CSR + delta COO, and of the held Aᵀ ``t`` (None
# when not carried) + the transposed delta, in one launch: one pass over
# both merges' items.  The semantic function is the same vectorised
# three-way merge the host path uses, so every backend materialises
# bit-identical CSR arrays.
# gbsan: ok(access-over-declared) -- run is functional; the declared write covers the caller's install_arrays swap so gbsan invalidates base residency at the launch
STREAM_COMPACT_MERGE = Kernel(
    "stream_compact_merge",
    _compact_merge_run,
    _compact_merge_work,
    accesses=lambda base, overlay, t: Access(reads=(base, t), writes=(base,)),
)
