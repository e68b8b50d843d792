"""The simulated CUDA backend.

Orchestrates the device kernels in :mod:`.kernels` exactly the way
GBTL-CUDA's backend orchestrated CUSP kernels:

- operand containers are **uploaded** to simulated device memory on first
  use and cached (a resident set), so repeated operations on the same graph
  pay the PCIe cost once — as a real GPU graph library keeps the graph on
  the device across BFS iterations;
- results are **created device-resident** (no download charged).  The rule
  is stated once, in :meth:`CudaSimBackend._launch`: every container a
  launch returns is marked clean in the resident set, so no operation
  marks its own result;
- each operation is one or more kernel launches whose modeled times
  accumulate on the device clock; benchmarks read
  ``get_device().profiler`` for the simulated GPU series.

Semantics are bit-identical to the other backends (the kernels share the
CPU backend's vectorized semantic code), so the test suite cross-checks all
three.
"""

from __future__ import annotations

from typing import Any, Optional

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.monoid import Monoid
from ...core.operators import BinaryOp, UnaryOp
from ...core.semiring import Semiring
from ...gpu.device import Device, get_device
from ...gpu.kernel import LaunchConfig, charge_transfer, launch
from ...gpu.residency import RESIDENT_CAP, ResidentSet
from .. import dispatch
from ..base import Backend, product_type
from ..cpu.spmv import choose_direction, mask_pull_rows
from . import kernels
from .kernels import (
    APPLY_M,
    APPLY_V,
    EWISE_ADD_M,
    EWISE_ADD_V,
    EWISE_APPLY_FUSED_V,
    EWISE_MULT_M,
    EWISE_MULT_V,
    EWISE_REDUCE_FUSED_V,
    FILL_EWISE_FUSED_V,
    GATHER,
    REDUCE_ROWS,
    REDUCE_TREE,
    SCATTER_ASSIGN,
    SELECT_COMPACT,
    SPGEMM_HASH,
    SPGEMM_HASH_MASKED,
    SPMSV_PUSH,
    SPMV_CSR_VECTOR,
    SPMV_PULL_FUSED,
    SPMV_PUSH_FUSED,
    STREAM_COMPACT_MERGE,
    TRANSPOSE_COUNTSORT,
)

__all__ = ["CudaSimBackend"]

_RESIDENT_CAP = RESIDENT_CAP


class CudaSimBackend(Backend):
    """GraphBLAS kernels on the simulated GPU.

    By default the backend charges work to the process-global device (see
    :func:`repro.gpu.device.get_device`), preserving ``reset_device()``
    semantics.  Passing ``device`` binds all launches, transfers, and
    residency accounting to that device — the multi-device backend
    instantiates one such executor per shard.
    """

    name = "cuda_sim"

    def __init__(self, device: Optional[Device] = None) -> None:
        self._device = device
        self._resident = ResidentSet(self._dev)
        # The lazy layer records against this backend in ``auto`` mode.
        # Device-bound executors (multi-device shards) stay eager: their
        # launches are driven inside another backend's operation.
        self.lazy_by_default = device is None

    def _dev(self) -> Device:
        return self._device or get_device()

    def devices(self) -> list[Device]:
        """The devices a lazy flush on this backend charges (loop capture)."""
        return [self._dev()]

    # ------------------------------------------------------------------
    # Residency management
    # ------------------------------------------------------------------

    def _ensure_resident(self, container) -> None:
        """Charge an H2D upload unless the container is clean on-device."""
        self._resident.ensure(container)

    def _launch(self, kernel, cfg, *args, **kw):
        """Launch on this backend's device; what the launch returns is born there.

        Every container in the result (each element of a returned tuple
        too) is marked clean in the resident set, so the next kernel that
        reads it elides the upload.
        """
        out = launch(kernel, cfg, *args, device=self._dev(), **kw)
        for c in out if isinstance(out, tuple) else (out,):
            if isinstance(c, (SparseVector, CSRMatrix)):
                self._resident.mark(c)
        return out

    def _launch_uncaptured(self, kernel, cfg, *args, **kw):
        """:meth:`_launch` outside any capturing graph.

        For the one-time build of an auxiliary structure (a transpose, a
        shard's sort): it is charged once, apart from the steady-state
        sequence a loop capture records, so iteration signatures stay
        stable (real CUDA Graphs capture steady-state sequences too).
        """
        dev = self._dev()
        saved, dev.active_graph = dev.active_graph, None
        try:
            return self._launch(kernel, cfg, *args, **kw)
        finally:
            dev.active_graph = saved

    def busy_us(self) -> float:
        """Simulated kernel + transfer time charged to this backend's device."""
        prof = self._dev().profiler
        return prof.kernel_time_us + prof.transfer_time_us

    def note_result(self, container) -> None:
        """Frontend produced this container from device-resident inputs.

        Marks it resident without charging an upload, so the next kernel
        that reads it elides the H2D copy (the data never left the device).
        """
        self._resident.mark(container)

    def evict_all(self) -> None:
        """Forget residency (e.g. between benchmark repetitions)."""
        # Deferred work must run against the pre-eviction residency set,
        # exactly as if every op had executed at its call site.
        dispatch.sync_pending()
        self._resident.evict_all()

    # ------------------------------------------------------------------
    # Device-side transpose with per-version memoisation
    # ------------------------------------------------------------------

    def _device_transpose(self, a: CSRMatrix) -> CSRMatrix:
        """Device-resident aᵀ, derived at most once per matrix version.

        A symmetric ``a`` is its own transpose and is returned at once:
        the kernels read the resident CSR and nothing is launched.  A known
        transpose clean on the device (the memo, or the matrix ``a`` is the
        memo of) is read as is.  Otherwise one TRANSPOSE_COUNTSORT launch
        derives it; its result is the container's own memo
        (:meth:`CSRMatrix.cached_transpose`), so host- and device-side
        consumers share one counting sort per matrix version.
        """
        if a.symmetric:
            return a
        hit = a.known_transpose()
        if hit is not None and self._resident.is_clean(hit):
            self._resident.mark(hit)  # LRU touch
            return hit
        return self._launch_uncaptured(
            TRANSPOSE_COUNTSORT, LaunchConfig.cover(a.nvals), a
        )

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    def _product(self, a, u, semiring, flip, mask, desc, direction) -> SparseVector:
        self._ensure_resident(a)
        self._ensure_resident(u)
        out_t = product_type(semiring, a, u, flip)
        push = choose_direction(a, u, mask, desc, direction, flip) == "push"
        if push and mask is not None:
            # The push kernel probes the mask bitmap in-kernel; it must be
            # on the device (gbsan residency gap: the upload was never
            # charged before).
            self._ensure_resident(mask)
        csr = a if push == flip else self._device_transpose(a)
        if push:
            cfg = LaunchConfig.cover(max(u.nvals, 1) * 32)
            return self._launch(
                SPMSV_PUSH, cfg, csr, u, semiring, out_t, flip, mask, desc
            )
        rows = mask_pull_rows(mask, desc, csr.nrows)
        nrows = csr.nrows if rows is None else len(rows)
        cfg = LaunchConfig.cover(max(nrows, 1) * 32)
        return self._launch(SPMV_CSR_VECTOR, cfg, csr, u, semiring, out_t, flip, rows)

    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        self._ensure_resident(a)
        self._ensure_resident(b)
        out_t = semiring.result_type(a.type, b.type)
        cfg = LaunchConfig.cover(max(a.nrows, 1) * 64)
        if mask is not None and not desc.complement_mask:
            from ..cpu.spgemm import mask_keys_for

            self._ensure_resident(mask)
            keys = mask_keys_for(mask, desc)
            return self._launch(SPGEMM_HASH_MASKED, cfg, a, b, semiring, out_t, keys)
        return self._launch(SPGEMM_HASH, cfg, a, b, semiring, out_t)

    # ------------------------------------------------------------------
    # Elementwise
    # ------------------------------------------------------------------

    def _ewise(self, kernel, x, y, op):
        self._ensure_resident(x)
        self._ensure_resident(y)
        return self._launch(kernel, LaunchConfig.cover(x.nvals + y.nvals), x, y, op)

    def ewise_add_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        return self._ewise(EWISE_ADD_V, u, v, op)

    def ewise_mult_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        return self._ewise(EWISE_MULT_V, u, v, op)

    def ewise_add_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        return self._ewise(EWISE_ADD_M, a, b, op)

    def ewise_mult_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        return self._ewise(EWISE_MULT_M, a, b, op)

    # ------------------------------------------------------------------
    # Fused kernels — single launches instead of compositions
    # ------------------------------------------------------------------

    def ewise_apply_vector(self, u, v, binop, unop, union=True):
        self._ensure_resident(u)
        self._ensure_resident(v)
        return self._launch(
            EWISE_APPLY_FUSED_V,
            LaunchConfig.cover(u.nvals + v.nvals),
            u, v, binop, unop, union,
        )

    def ewise_reduce_vector(self, u, v, binop, unop, union, monoid, out_type):
        """Elementwise(+apply) chain feeding a reduction — ONE launch.

        Returns ``(t, val)``: the materialized elementwise result (the
        handle the reduce's producer was recorded into still observes it)
        and the already-cast scalar.
        """
        self._ensure_resident(u)
        self._ensure_resident(v)
        return self._launch(
            EWISE_REDUCE_FUSED_V,
            LaunchConfig.cover(u.nvals + v.nvals),
            u, v, binop, unop, union, monoid, out_type,
        )

    def fill_ewise_vector(self, value, size, fill_type, other, binop, fill_first):
        """Constant-fill operand consumed by a union ewise — ONE launch.

        The dense fill never materializes: it is generated in registers, so
        the scatter-assign launch and its container are both eliminated.
        """
        self._ensure_resident(other)
        return self._launch(
            FILL_EWISE_FUSED_V,
            LaunchConfig.cover(max(int(size), 1) + other.nvals),
            value, size, fill_type, other, binop, fill_first,
        )

    def sink_restrict(self, container, mask):
        """Mask sinking: pre-restrict an input to the mask's stored indices.

        Pure schedule decision — the restricted view is derived on-device
        from resident operands (no launch, no transfer charged), and the
        downstream merge re-filters exactly.
        """
        if mask is None:
            return container
        self._ensure_resident(container)
        self._ensure_resident(mask)
        out = kernels.mask_restrict(container, mask)
        if out is not container:
            self._resident.mark(out)
        return out

    def frontier_step(
        self,
        levels: SparseVector,
        frontier: SparseVector,
        a: CSRMatrix,
        value: Any,
        semiring: Semiring,
        desc: Descriptor,
        direction: str = "auto",
    ):
        """Level assign + masked SpMSpV + frontier merge as ONE launch."""
        self._ensure_resident(a)
        self._ensure_resident(frontier)
        self._ensure_resident(levels)
        if choose_direction(a, frontier, levels, desc, direction, True) == "push":
            cfg = LaunchConfig.cover(max(frontier.nvals, 1) * 32)
            return self._launch(
                SPMV_PUSH_FUSED, cfg, levels, frontier, a, value, semiring, desc
            )
        tcsr = self._device_transpose(a)
        cfg = LaunchConfig.cover(max(tcsr.nrows, 1) * 32)
        return self._launch(
            SPMV_PULL_FUSED, cfg, levels, frontier, tcsr, value, semiring, desc
        )

    # ------------------------------------------------------------------
    # Apply / reduce / transpose
    # ------------------------------------------------------------------

    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        self._ensure_resident(u)
        return self._launch(APPLY_V, LaunchConfig.cover(u.nvals), u, op)

    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        self._ensure_resident(a)
        return self._launch(APPLY_M, LaunchConfig.cover(a.nvals), a, op)

    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        self._ensure_resident(u)
        t = monoid.result_type(u.type)
        val = self._launch(
            REDUCE_TREE, LaunchConfig.cover(u.nvals), u.values, monoid, u.type,
            san_reads=(u,),
        )
        return t.cast(val)

    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        self._ensure_resident(a)
        return self._launch(
            REDUCE_ROWS, LaunchConfig.cover(max(a.nrows, 1) * 32), a, monoid
        )

    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        self._ensure_resident(a)
        t = monoid.result_type(a.type)
        val = self._launch(
            REDUCE_TREE, LaunchConfig.cover(a.nvals), a.values, monoid, a.type,
            san_reads=(a,),
        )
        return t.cast(val)

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        self._ensure_resident(a)
        return self._device_transpose(a)

    # ------------------------------------------------------------------
    # Host-computed ops (select, apply with index, extract) and assign
    # ------------------------------------------------------------------

    def host_op(self, kind, src, n, compute):
        self._ensure_resident(src)
        if kind == "select":
            return self._launch(
                SELECT_COMPACT, LaunchConfig.cover(n), compute, n, src.type.nbytes,
                san_reads=(src,),
            )
        return self._launch(
            GATHER, LaunchConfig.cover(n), compute, n, src.type.nbytes,
            san_reads=(src,),
        )

    def charge_assign(self, nvals: int, out) -> None:
        self._launch(
            SCATTER_ASSIGN, LaunchConfig.cover(nvals), float(nvals), 8,
            san_writes=(out,),
        )

    # ------------------------------------------------------------------
    # Streaming compaction
    # ------------------------------------------------------------------

    def compact(self, base: CSRMatrix, overlay) -> None:
        """Upload the delta and merge it on-device, into A and into the Aᵀ
        the device holds, in one launch; both results stay resident and the
        superseded Aᵀ leaves the device."""
        self._ensure_resident(base)
        t = base.known_transpose()
        if t is not None and not self._resident.is_clean(t):
            t = None
        charge_transfer(overlay.nbytes, "h2d", device=self._dev())
        arrays, memo = self._launch(
            STREAM_COMPACT_MERGE,
            LaunchConfig.cover(kernels.compact_items(base, overlay, t)),
            base,
            overlay,
            t,
        )
        base.install_arrays(*arrays)
        # The merged arrays were produced on-device: mark the new version
        # clean so the next kernel elides the re-upload.  The launch marked
        # the carried memo.
        self.note_result(base)
        if memo is not None:
            base.seat_transpose(memo)
            if t is not base:
                self._resident.evict(t)
