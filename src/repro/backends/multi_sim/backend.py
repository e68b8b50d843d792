"""The multi-device (partitioned) simulated backend.

``multi_sim`` runs every GraphBLAS operation across ``P`` simulated devices:
matrices are sharded into contiguous block-rows (equal-rows or
degree-balanced splitters), each shard is serviced by its own
:class:`~repro.backends.cuda_sim.backend.CudaSimBackend` executor bound to
its own :class:`~repro.gpu.device.Device`, and inter-device data movement is
priced by the :class:`~repro.distributed.comm.CommModel` of a configurable
link :class:`~repro.distributed.topology.Topology`.

Execution semantics (see ``docs/distributed.md`` for the full accounting):

- **P = 1 delegates.**  Every operation carries the :func:`_sharded` rule:
  a one-device cluster hands the call to its single executor, so it is
  bit- and counter-identical to ``cuda_sim`` by construction.
- **One per-device path.**  A shard's output is the return value of the
  kernel launched on its device; a device with no work runs the kernel's
  semantics inline and launches nothing (:meth:`MultiSimBackend._on_shard`).
- **Lazy by default.**  Like ``cuda_sim``, the backend records onto the
  lazy tape (:mod:`repro.lazy`) and its flushes run the full pass set;
  loop capture enters every device, so each shard's launch sequence
  replays independently.  The per-shard executors stay eager: they run
  inside this backend's own operations.
- **Pull products are decomposed by row** — each device computes its owned
  output rows from a replicated input vector; the concatenation is
  bit-identical to the unsharded kernel for *any* semiring.
- **Push products are decomposed by frontier ownership** — each device
  expands its slice of the frontier into a full-size partial, partials are
  exchanged (``frontier_exchange``) and folded by the owners with the
  additive monoid.  Sharded folding is only bit-exact for exact additive
  monoids (MIN/MAX/logical/bitwise, or any monoid over an integer or
  boolean domain), so ``auto`` direction demotes push → pull for inexact
  float adds; the direction *choice* itself is made on the full operands
  with the same :func:`~repro.backends.cpu.spmv.choose_direction` call the
  single-device backend makes.
- **Results are sliced-resident**: each device holds its owned slice.
  :func:`_sharded` states this once for every operation at P > 1, so no
  operation marks its own result; a returned operand and a result already
  replicated on the devices keep their residency.  Consuming a sliced
  container as a replicated operand (e.g. the PageRank rank vector feeding
  the next SpMV) charges an ``allgather`` — the per-iteration replication
  cost that dominates multi-GPU GraphBLAS scaling.

The frontend never sees any of this: algorithms written against
``repro.core`` run unchanged, and ``BFS``/``PageRank``/``delta-stepping``
produce bit-identical results on 1–8 simulated devices.
"""

from __future__ import annotations

import functools
from typing import Any, Optional

import numpy as np

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.monoid import Monoid
from ...core.operators import BinaryOp, UnaryOp
from ...core.semiring import Semiring
from ...distributed.cluster import SimCluster
from ...distributed.partition import (
    PartitionedCSR,
    PartitionedVector,
    SPLITTERS,
    _slice_rows,
    concat_row_blocks,
    equal_rows_splitters,
)
from ...distributed.topology import DGX_NVLINK, Topology
from ...exceptions import InvalidValueError
from ...gpu.device import Device, DeviceProperties, K40
from ...gpu.kernel import LaunchConfig, charge_transfer, launch
from ...sanitizer import runtime as _gbsan
from ..base import Backend, frontier_assign, product_type
from ..cpu.ewise import ewise_add_vec
from ..cpu.spmv import choose_direction, mask_pull_rows
from ..cuda_sim.kernels import (
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
    compact_items,
    mask_restrict,
)
from .kernels import PARTIAL_MERGE, STREAM_COMPACT_SHARD, TRANSPOSE_SHARD

__all__ = ["MultiSimBackend"]


def _noop() -> None:
    return None


def _sharded(method):
    """The result rules, stated once for every operation.

    At P = 1 a one-device cluster delegates the op: the single executor
    runs the call itself, so ``multi_sim:1`` is bit- and counter-identical
    to ``cuda_sim``.  At P > 1 the body runs, and every container it
    returns (each element of a returned tuple too) is born sliced: each
    device holds its owned slice.  Two kinds keep their residency: one of
    the call's own operands handed back, and a result the body already
    replicated on the devices (clean on device 0).
    """
    name = method.__name__

    @functools.wraps(method)
    def op(self, *args, **kwargs):
        if self.nparts == 1:
            return getattr(self._ex(0), name)(*args, **kwargs)
        out = method(self, *args, **kwargs)
        operands = (*args, *kwargs.values())
        for c in out if isinstance(out, tuple) else (out,):
            if (
                isinstance(c, (SparseVector, CSRMatrix))
                and not any(c is x for x in operands)
                and not self._ex(0)._resident.is_clean(c)
            ):
                self._mark_sliced(c)
        return out

    return op


#: Additive monoids whose sharded fold is bitwise-equal to the unsharded
#: reduction regardless of domain: selections and lattice/logical ops have
#: no rounding, so associativity holds exactly.
_EXACT_ADDS = frozenset({"MIN", "MAX", "LOR", "LAND", "BOR", "BAND", "ANY"})

#: Container ``_aux`` key of the sliced-residency stamp (see _mark_sliced).
_SLICED = "multi_sim.sliced"


class MultiSimBackend(Backend):
    """GraphBLAS kernels sharded across P simulated devices."""

    name = "multi_sim"
    # The lazy layer records against this backend in ``auto`` mode.
    lazy_by_default = True

    def __init__(
        self,
        nparts: int = 2,
        splitter: str = "equal_rows",
        topology: Topology = DGX_NVLINK,
        props: DeviceProperties = K40,
    ) -> None:
        self.configure(nparts, splitter, topology, props)

    # ------------------------------------------------------------------
    # Configuration / introspection
    # ------------------------------------------------------------------

    def configure(
        self,
        nparts: Optional[int] = None,
        splitter: Optional[str] = None,
        topology: Optional[Topology] = None,
        props: Optional[DeviceProperties] = None,
    ) -> "MultiSimBackend":
        """Rebuild the cluster with new parameters; drops all device state.

        The constructor builds through here too.  Bad values raise before
        anything changes.
        """
        if nparts is not None and nparts < 1:
            raise InvalidValueError(f"nparts must be >= 1, got {nparts}")
        if splitter is not None and splitter not in SPLITTERS:
            raise InvalidValueError(
                f"unknown splitter {splitter!r}; known: {SPLITTERS}"
            )
        if nparts is not None:
            self.nparts = int(nparts)
        if splitter is not None:
            self.splitter = splitter
        if topology is not None:
            self.topology = topology
        if props is not None:
            self.props = props
        self._cluster = SimCluster(self.nparts, self.props, self.topology)
        # Sliced-residency epoch: a container whose _aux stamp is this token
        # is held as owned slices.  Replacing the token forgets every stamp.
        self._epoch = object()
        return self

    @property
    def cluster(self) -> SimCluster:
        return self._cluster

    def metrics(self) -> dict:
        """Cluster-wide counters (launches, bytes, comm, makespan)."""
        return self._cluster.metrics()

    def busy_us(self) -> float:
        """The cluster makespan, at every P (a one-device cluster too)."""
        return float(self._cluster.makespan_us)

    def reset(self) -> None:
        """Fresh clocks/profilers/residency on every device + comm counters."""
        self._cluster.reset()
        self._epoch = object()

    def evict_all(self) -> None:
        """Forget device residency (benchmark repetition boundary)."""
        for ex in self._cluster.executors:
            ex.evict_all()
        self._epoch = object()

    def _ex(self, p: int):
        return self._cluster.executors[p]

    def _dev(self, p: int) -> Device:
        return self._cluster.devices[p]

    def devices(self) -> list[Device]:
        """The devices a lazy flush on this backend charges (loop capture)."""
        return list(self._cluster.devices)

    # ------------------------------------------------------------------
    # Residency: replicated vs sliced
    # ------------------------------------------------------------------

    def _is_sliced(self, c) -> bool:
        return c._aux.get(_SLICED) is self._epoch

    def _mark_sliced(self, c) -> None:
        # The stamp lives on the container, so bump_version (which clears
        # _aux) retires it with the data it describes.
        c._aux[_SLICED] = self._epoch
        san = _gbsan.ACTIVE
        if san is not None:
            # Each device holds its owned slice: give every device a derived
            # shadow entry so shard-wise reads pass the residency checker.
            for p in range(self.nparts):
                san.note_derived(self._dev(p), c, c)

    def _ensure_replicated(self, c) -> None:
        """Every device must hold the full container; charge what that takes."""
        if self._is_sliced(c):
            # Devices hold disjoint slices: gather the full container
            # everywhere over the peer links.
            del c._aux[_SLICED]
            self._cluster.collective("allgather", float(c.nbytes))
            for ex in self._cluster.executors:
                ex._resident.mark(c)
            return
        ex0 = self._ex(0)
        if ex0._resident.is_clean(c):
            for ex in self._cluster.executors:
                ex._resident.mark(c)  # LRU touch on every replica
            return
        # Fresh host data: one PCIe upload to device 0, then a peer broadcast.
        ex0._ensure_resident(c)
        self._cluster.collective("broadcast", float(c.nbytes))
        for ex in self._cluster.executors[1:]:
            ex._resident.mark(c)

    def _ensure_available(self, c) -> None:
        """Container consumable shard-wise: sliced residency is sufficient."""
        if self._is_sliced(c):
            # The sliced claim is version-current, but the shadow slot is
            # shared with any *replicated* copy of ``c`` — if that copy was
            # since evicted, the slot reads as freed even though the devices
            # still hold their owned slices (partition caches).  Re-assert
            # the derived per-device entries so shard-wise reads check
            # against the slices, not the dead replica.
            san = _gbsan.ACTIVE
            if san is not None:
                for p in range(self.nparts):
                    san.note_derived(self._dev(p), c, c)
            return
        self._ensure_replicated(c)

    @_sharded
    def note_result(self, container) -> None:
        """Frontend write-pipeline output: devices hold their owned slices."""
        self._mark_sliced(container)

    # ------------------------------------------------------------------
    # Partitions (memoised on the containers themselves)
    # ------------------------------------------------------------------

    def _row_parts(self, a: CSRMatrix) -> PartitionedCSR:
        """Row-sharded view of ``a``, with each shard resident on its device.

        A shard uploads as its matrix would: where ``a`` carries an iso
        upload hint for the shard's device, the shard's own value array is
        filled on the device instead of copied.
        """
        part = self._parts(a)
        sliced = self._is_sliced(a)
        for ex, shard in zip(self._cluster.executors, part.shards):
            if sliced:
                ex._resident.mark(shard)  # produced on-device; no upload
                continue
            hint = ("h2d_skip", ex._dev().serial)
            if a._aux.get(hint):
                shard._aux[hint] = float(shard.values.nbytes)
            ex._ensure_resident(shard)  # 1/P of the matrix per device
        return part

    def _col_parts(self, a: CSRMatrix) -> PartitionedCSR:
        """Row-sharded Aᵀ for push mxv, pull vxm and the transpose op,
        built at most once per version.

        The shards are the memoised partition of the container memo
        ``a.cached_transpose()`` (one host counting sort per matrix version,
        shared with every other consumer); the *distributed* cost charged
        here is A's row shards made resident, each device sorting its edge
        block, and one all-to-all shuffling edges to their new owners.  Like
        the single-device aux builds, the charges land outside any capturing
        graph so iteration signatures stay stable.  A symmetric ``a`` is its
        own transpose: its row shards serve, with no sort and no shuffle.
        The shards are reused only while every device still holds its own
        (as cuda_sim's ``_device_transpose`` reads a clean memo); after an
        eviction or a reset the build is charged again.
        """
        if a.symmetric:
            return self._row_parts(a)
        executors = self._cluster.executors
        part = self._parts(a.cached_transpose())
        if self._held(part):
            for ex, shard in zip(executors, part.shards):
                ex._resident.mark(shard)  # LRU touch
            return part
        self._row_parts(a)  # each device sorts its own block of A's edges
        for ex, shard in zip(executors, part.shards):
            # The shard materialises on its device as the sort runs; mark
            # residency first so the pricing launch reads a known buffer.
            ex._resident.mark(shard)
            if shard.nvals:
                ex._launch_uncaptured(
                    TRANSPOSE_SHARD, LaunchConfig.cover(shard.nvals), shard
                )
        self._cluster.collective("all_to_all", float(a.nbytes))
        return part

    def _parts(self, m: CSRMatrix) -> PartitionedCSR:
        """This cluster's partition of ``m`` (memoised on ``m``)."""
        return PartitionedCSR.of(m, self.nparts, self.splitter)

    def _held(self, part: PartitionedCSR) -> bool:
        """Every device holds its shard of ``part`` clean."""
        return all(
            ex._resident.is_clean(s)
            for ex, s in zip(self._cluster.executors, part.shards)
        )

    # ------------------------------------------------------------------
    # The per-device path
    # ------------------------------------------------------------------

    def _vec_slices(self, size: int, *vectors: SparseVector):
        """Equal output ranges of ``size``: the splitters, then per vector
        its P owned slices (indices rebased to the slice)."""
        sp = equal_rows_splitters(size, self.nparts)
        parts = [PartitionedVector(v, sp) for v in vectors]
        return sp, [[pv.shard(p) for p in range(self.nparts)] for pv in parts]

    def _on_shard(self, p: int, kernel, n: int, *args, cfg=None, derived=(), **kw):
        """Device ``p``'s share of an op; the kernel's result is the shard's output.

        ``n`` counts the shard's work items.  A device with none runs the
        kernel's ``run`` inline and launches nothing; otherwise the launch
        covers ``n`` threads unless ``cfg`` says otherwise.  ``derived``
        lists ``(slice, whole)`` pairs: each slice was cut on-device from
        ``whole``, which gbsan's residency checker must be told.
        """
        if not n:
            return kernel.run(*args)
        san = _gbsan.ACTIVE
        if san is not None:
            for part, whole in derived:
                san.note_derived(self._dev(p), part, whole)
        return launch(
            kernel, cfg or LaunchConfig.cover(n), *args, device=self._dev(p), **kw
        )

    # ------------------------------------------------------------------
    # Shared product machinery
    # ------------------------------------------------------------------

    def _allreduce(self, t) -> None:
        """The scalar allreduce that closes every sharded full reduction."""
        self._cluster.collective(
            "allreduce", float(2 * (self.nparts - 1) * t.nbytes), t.nbytes
        )

    def _exact_add(self, semiring: Semiring, out_t) -> bool:
        if semiring.add.op.name in _EXACT_ADDS:
            return True
        return not out_t.is_floating

    @_sharded
    def _product(self, a, u, semiring, flip, mask, desc, direction) -> SparseVector:
        """The push/pull router behind mxv, vxm and frontier_step.

        ``flip=False`` computes ``A ⊗ u`` (mxv), ``flip=True`` ``u ⊗ A``.
        The direction is chosen on the FULL operands — identical inputs,
        hence an identical choice, to the single-device backend — and an
        inexact add demotes push to pull.  vxm pushes over A's row shards
        and pulls over Aᵀ's; mxv the reverse.
        """
        out_t = product_type(semiring, a, u, flip)
        push = choose_direction(a, u, mask, desc, direction, flip) == "push"
        push = push and self._exact_add(semiring, out_t)
        if mask is not None:
            self._ensure_replicated(mask)
        parts = self._row_parts(a) if push == flip else self._col_parts(a)
        if push:
            self._ensure_available(u)
            return self._push_product(parts, u, semiring, out_t, flip, mask, desc)
        self._ensure_replicated(u)
        rows = mask_pull_rows(mask, desc, parts.nrows)
        return self._pull_product(parts, u, semiring, out_t, flip, rows)

    def _push_product(
        self, parts: PartitionedCSR, u: SparseVector, semiring, out_t, flip, mask, desc
    ) -> SparseVector:
        """Sharded push: local expansions → sparse exchange → owner folds."""
        n_out = parts.ncols
        uv = PartitionedVector(u, parts.splitters)
        partials, send = [], []
        for p, shard in enumerate(parts.shards):
            ush = uv.shard(p)
            if shard.nvals == 0 or ush.nvals == 0:
                send.append(0.0)
                continue
            # Each shard's launch re-bins its own frontier slice: a
            # degree-balanced split can still leave one device holding a
            # mega-hub.
            t_p = self._on_shard(
                p, SPMSV_PUSH, ush.nvals,
                shard, ush, semiring, out_t, flip, mask, desc,
                cfg=LaunchConfig.cover(ush.nvals * 32),
                derived=((ush, u),),
            )
            partials.append(t_p)
            send.append(float(t_p.nbytes))
        self._cluster.collective("frontier_exchange", float(sum(send)), send)
        if not partials:
            return SparseVector.empty(n_out, out_t)
        out = partials[0]
        for t_p in partials[1:]:
            out = ewise_add_vec(out, t_p, semiring.add.op)
        total = sum(t_p.nvals for t_p in partials)
        per = max(float(total) / self.nparts, 1.0)
        for p in range(self.nparts):
            launch(
                PARTIAL_MERGE,
                LaunchConfig.cover(int(per)),
                per,
                out_t.nbytes,
                device=self._dev(p),
            )
        if out.type is not out_t:
            out = SparseVector(
                out.size, out.indices, out.values.astype(out_t.dtype, copy=False), out_t
            )
        return out

    def _pull_product(
        self, parts: PartitionedCSR, u: SparseVector, semiring, out_t, flip, rows
    ) -> SparseVector:
        """Sharded pull: each device gathers its owned output rows."""
        shards_out = []
        for p, shard in enumerate(parts.shards):
            lo, hi = parts.shard_range(p)
            if rows is None:
                local_rows = None
                nloc = shard.nrows
            else:
                s, e = np.searchsorted(rows, (lo, hi))  # gbsan: ok(uncharged-numpy) -- O(log n) shard-boundary lookup, not device work
                local_rows = (rows[s:e] - lo).astype(np.int64)
                nloc = int(local_rows.size)
            if shard.nvals == 0 or u.nvals == 0 or nloc == 0:
                shards_out.append(SparseVector.empty(shard.nrows, out_t))
                continue
            # The launch picks its lane from the shard's own rows.
            t_p = launch(
                SPMV_CSR_VECTOR,
                LaunchConfig.cover(nloc * 32),
                shard,
                u,
                semiring,
                out_t,
                flip,
                local_rows,
                device=self._dev(p),
            )
            shards_out.append(t_p)
        return PartitionedVector.reassemble(shards_out, parts.splitters, typ=out_t)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    @_sharded
    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        parts = self._row_parts(a)
        self._ensure_replicated(b)
        out_t = semiring.result_type(a.type, b.type)
        masked = mask is not None and not desc.complement_mask
        if masked:
            from ..cpu.spgemm import mask_keys_for

            self._ensure_replicated(mask)
        blocks = []
        for p, shard in enumerate(parts.shards):
            lo, hi = parts.shard_range(p)
            if shard.nvals == 0 or b.nvals == 0:
                blocks.append(CSRMatrix.empty(shard.nrows, b.ncols, out_t))
                continue
            cfg = LaunchConfig.cover(max(shard.nrows, 1) * 64)
            if masked:
                keys = mask_keys_for(_slice_rows(mask, lo, hi), desc)
                blk = launch(
                    SPGEMM_HASH_MASKED, cfg, shard, b, semiring, out_t, keys,
                    device=self._dev(p),
                )
            else:
                blk = launch(
                    SPGEMM_HASH, cfg, shard, b, semiring, out_t, device=self._dev(p)
                )
            blocks.append(blk)
        return concat_row_blocks(blocks, b.ncols, out_t)

    # ------------------------------------------------------------------
    # Elementwise (sliced by equal output ranges; bit-exact elementwise)
    # ------------------------------------------------------------------

    def _ewise_sharded(self, kernel, x, y, *kargs):
        self._ensure_available(x)
        self._ensure_available(y)
        if isinstance(x, SparseVector):
            sp, (xs, ys) = self._vec_slices(x.size, x, y)
        else:
            sp = equal_rows_splitters(x.nrows, self.nparts)
            xs, ys = (
                [_slice_rows(m, int(lo), int(hi)) for lo, hi in zip(sp[:-1], sp[1:])]
                for m in (x, y)
            )
        outs = [
            self._on_shard(
                p, kernel, sx.nvals + sy.nvals, sx, sy, *kargs,
                derived=((sx, x), (sy, y)),
            )
            for p, (sx, sy) in enumerate(zip(xs, ys))
        ]
        if isinstance(x, SparseVector):
            return PartitionedVector.reassemble(outs, sp, typ=outs[0].type)
        return concat_row_blocks(outs, x.ncols, outs[0].type)

    @_sharded
    def ewise_add_vector(self, u, v, op: BinaryOp) -> SparseVector:
        return self._ewise_sharded(EWISE_ADD_V, u, v, op)

    @_sharded
    def ewise_mult_vector(self, u, v, op: BinaryOp) -> SparseVector:
        return self._ewise_sharded(EWISE_MULT_V, u, v, op)

    @_sharded
    def ewise_add_matrix(self, a, b, op: BinaryOp) -> CSRMatrix:
        return self._ewise_sharded(EWISE_ADD_M, a, b, op)

    @_sharded
    def ewise_mult_matrix(self, a, b, op: BinaryOp) -> CSRMatrix:
        return self._ewise_sharded(EWISE_MULT_M, a, b, op)

    @_sharded
    def ewise_apply_vector(self, u, v, binop, unop, union=True) -> SparseVector:
        return self._ewise_sharded(EWISE_APPLY_FUSED_V, u, v, binop, unop, union)

    # ------------------------------------------------------------------
    # Lazy-optimizer hooks (fused chains and mask sinking), sharded
    # ------------------------------------------------------------------

    @_sharded
    def ewise_reduce_vector(self, u, v, binop, unop, union, monoid, out_type):
        """Fused ewise→reduce: one launch per shard, then a scalar allreduce.

        The communication is exactly the unfused pair's: sliced operands,
        a sliced result, and the reduction's allreduce.  The value is the
        full-vector fold, bit-identical to the unfused reduce.
        """
        self._ensure_available(u)
        self._ensure_available(v)
        sp, (us, vs) = self._vec_slices(u.size, u, v)
        outs = [
            self._on_shard(
                p, EWISE_REDUCE_FUSED_V, su.nvals + sv.nvals,
                su, sv, binop, unop, union, monoid, out_type,
                derived=((su, u), (sv, v)),
            )[0]
            for p, (su, sv) in enumerate(zip(us, vs))
        ]
        t = PartitionedVector.reassemble(outs, sp, typ=out_type)
        rt = monoid.result_type(t.type)
        self._allreduce(rt)
        return t, rt.cast(monoid.reduce_array(t.values, t.type))

    @_sharded
    def fill_ewise_vector(self, value, size, fill_type, other, binop, fill_first):
        """Fused fill→ewise: each device generates its owned fill range."""
        self._ensure_available(other)
        sp, (others,) = self._vec_slices(int(size), other)
        outs = []
        for p, so in enumerate(others):
            n = int(sp[p + 1] - sp[p])
            outs.append(
                self._on_shard(
                    p, FILL_EWISE_FUSED_V, max(n, 1) + so.nvals,
                    value, n, fill_type, so, binop, fill_first,
                    derived=((so, other),),
                )
            )
        return PartitionedVector.reassemble(outs, sp, typ=outs[0].type)

    @_sharded
    def sink_restrict(self, container, mask):
        """Mask sinking: each device restricts its owned slice on-device."""
        if mask is None:
            return container
        self._ensure_available(container)
        self._ensure_available(mask)
        return mask_restrict(container, mask)

    # ------------------------------------------------------------------
    # Fused BFS frontier step
    # ------------------------------------------------------------------

    @_sharded
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
        from ...core.accumulate import merge_vector

        # Level assign: every device scatters the frontier into its replica
        # of the levels vector (the visited bitmap is replicated; keeping the
        # replicas coherent is what the exchanged frontier pays for).
        new_levels = frontier_assign(levels, frontier, value)
        self.charge_assign(frontier.nvals, new_levels)
        for ex in self._cluster.executors:
            ex._resident.mark(new_levels)
        # The router's mask replication only touches these replicas.  The
        # direction is chosen against the pre-step visited set, exactly as
        # the single-device fused kernel chooses it.
        d = choose_direction(a, frontier, levels, desc, direction, True)
        t = self._product(a, frontier, semiring, True, new_levels, desc, d)
        new_frontier = merge_vector(frontier, t, new_levels, None, desc)
        return new_levels, new_frontier

    # ------------------------------------------------------------------
    # Apply / reduce / transpose
    # ------------------------------------------------------------------

    @_sharded
    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        self._ensure_available(u)
        sp, (us,) = self._vec_slices(u.size, u)
        outs = [
            self._on_shard(p, APPLY_V, su.nvals, su, op, derived=((su, u),))
            for p, su in enumerate(us)
        ]
        return PartitionedVector.reassemble(outs, sp, typ=op.result_type(u.type))

    @_sharded
    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        parts = self._row_parts(a)
        outs = [
            self._on_shard(p, APPLY_M, shard.nvals, shard, op)
            for p, shard in enumerate(parts.shards)
        ]
        return concat_row_blocks(outs, a.ncols, op.result_type(a.type))

    @_sharded
    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        self._ensure_available(u)
        t = monoid.result_type(u.type)
        _, (us,) = self._vec_slices(u.size, u)
        for p, sh in enumerate(us):
            self._on_shard(
                p, REDUCE_TREE, sh.nvals, sh.values, monoid, u.type,
                derived=((sh, u),), san_reads=(sh,),
            )
        self._allreduce(t)
        # The value itself is the full-array fold — bit-identical to the
        # single-device REDUCE_TREE semantic; the charges above price the
        # sharded tree + scalar allreduce that produce it.
        return t.cast(monoid.reduce_array(u.values, u.type))

    @_sharded
    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        parts = self._row_parts(a)
        outs = [
            self._on_shard(
                p, REDUCE_ROWS, shard.nvals, shard, monoid,
                cfg=LaunchConfig.cover(max(shard.nrows, 1) * 32),
            )
            for p, shard in enumerate(parts.shards)
        ]
        return PartitionedVector.reassemble(
            outs, parts.splitters, typ=monoid.result_type(a.type)
        )

    @_sharded
    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        parts = self._row_parts(a)
        t = monoid.result_type(a.type)
        for p, shard in enumerate(parts.shards):
            self._on_shard(
                p, REDUCE_TREE, shard.nvals, shard.values, monoid, a.type,
                san_reads=(shard,),
            )
        self._allreduce(t)
        return t.cast(monoid.reduce_array(a.values, a.type))

    @_sharded
    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        """Priced as the distributed build the products use; returns the memo."""
        self._col_parts(a)
        return a.cached_transpose()

    # ------------------------------------------------------------------
    # Host-computed ops (select, apply with index, extract): priced per device
    # ------------------------------------------------------------------

    @_sharded
    def host_op(self, kind, src, n, compute):
        """Price a host-computed op as 1/P of ``n`` per device, then
        return ``compute()`` (sliced by :func:`_sharded`)."""
        kernel = SELECT_COMPACT if kind == "select" else GATHER
        self._ensure_available(src)
        per = max(float(n) / self.nparts, 1.0)
        for p in range(self.nparts):
            launch(
                kernel, LaunchConfig.cover(int(per)), _noop, per, src.type.nbytes,
                device=self._dev(p), san_reads=(src,),
            )
        return compute()

    @_sharded
    def charge_assign(self, nvals: int, out) -> None:
        # Assign updates the replicated target on every device.
        for p in range(self.nparts):
            launch(
                SCATTER_ASSIGN, LaunchConfig.cover(max(nvals, 1)), float(nvals), 8,
                device=self._dev(p), san_writes=(out,),
            )

    # ------------------------------------------------------------------
    # Streaming compaction
    # ------------------------------------------------------------------

    @_sharded
    def compact(self, base: CSRMatrix, overlay) -> None:
        """Each device uploads its slice of the delta and merges it into its
        A shard and, when every device holds its Aᵀ shard, into that shard
        too, in one launch; then an all-to-all moves rows (and the
        transposed delta) across the ownership split.  The carried Aᵀ's
        shards stay resident and the superseded ones leave the devices."""
        from ...streaming.overlay import compact_merge

        self._ensure_available(base)
        t = base.known_transpose()
        old = None if t is None or t is base else self._parts(t)
        if old is not None and not self._held(old):
            t = old = None
        arrays, memo = compact_merge(base, overlay, t)
        per_items = max(compact_items(base, overlay, t) / self.nparts, 1.0)
        per_delta = max(overlay.nbytes // self.nparts, 1)
        item_bytes = base.type.nbytes + 8  # value + column index per item
        for p in range(self.nparts):
            charge_transfer(per_delta, "h2d", device=self._dev(p))
            reads = (base,) if old is None else (base, old.shards[p])
            launch(
                STREAM_COMPACT_SHARD, LaunchConfig.cover(int(per_items)),
                per_items, item_bytes, device=self._dev(p), san_reads=reads,
            )
        # Inserts can move a row's slice across the ownership split; charge
        # the redistribution like the sharded transpose does.
        moved = overlay.nbytes if memo is None else 2 * overlay.nbytes
        self._cluster.collective("all_to_all", float(moved))
        base.install_arrays(*arrays)
        self.note_result(base)
        if memo is None:
            return
        base.seat_transpose(memo)
        for ex, shard in zip(self._cluster.executors, self._parts(memo).shards):
            ex._resident.mark(shard)  # merged on its device
        if old is not None:
            for ex, shard in zip(self._cluster.executors, old.shards):
                ex._resident.evict(shard)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Backend multi_sim P={self.nparts} {self.splitter} "
            f"{self.topology.name}>"
        )
