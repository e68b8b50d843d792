"""The multi-device (partitioned) simulated backend.

``multi_sim`` runs every GraphBLAS operation across ``P`` simulated devices:
matrices are sharded into contiguous block-rows (equal-rows or
degree-balanced splitters), each shard is serviced by its own
:class:`~repro.backends.cuda_sim.backend.CudaSimBackend` executor bound to
its own :class:`~repro.gpu.device.Device`, and inter-device data movement is
priced by the :class:`~repro.distributed.comm.CommModel` of a configurable
link :class:`~repro.distributed.topology.Topology`.

Execution semantics (see ``docs/distributed.md`` for the full accounting):

- **P = 1 delegates.**  Every operation short-circuits to the single
  executor, so a one-device cluster is bit- and counter-identical to
  ``cuda_sim`` by construction.
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
  Consuming a sliced container as a replicated operand (e.g. the PageRank
  rank vector feeding the next SpMV) charges an ``allgather`` — the
  per-iteration replication cost that dominates multi-GPU GraphBLAS scaling.

The frontend never sees any of this: algorithms written against
``repro.core`` run unchanged, and ``BFS``/``PageRank``/``delta-stepping``
produce bit-identical results on 1–8 simulated devices.
"""

from __future__ import annotations

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
from ...policy import current
from ...sanitizer import runtime as _gbsan
from ..base import Backend
from ..cpu.ewise import ewise_add_vec, ewise_mult_vec
from ..cpu.reduce_apply import apply_mat, apply_vec, reduce_mat_vector
from ..cpu.spmv import choose_direction, mask_pull_rows
from ..cuda_sim.kernels import (
    APPLY_M,
    APPLY_V,
    EWISE_ADD_M,
    EWISE_ADD_V,
    EWISE_APPLY_FUSED_M,
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
    _frontier_assign,
    laned,
    mask_restrict,
    pull_lane,
    push_lane,
    spgemm_lane,
)
from .kernels import PARTIAL_MERGE, TRANSPOSE_SHARD

__all__ = ["MultiSimBackend"]


def _noop() -> None:
    return None


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
        # Partition memos, keyed by id(matrix): (ref, version, PartitionedCSR).
        self._parts: dict = {}
        self._tparts: dict = {}
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
        self._parts.clear()
        self._tparts.clear()
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
            dt = self._cluster.comm.allgather(float(c.nbytes))
            self._cluster.charge_comm("allgather", dt, float(c.nbytes))
            for ex in self._cluster.executors:
                ex._mark_resident(c)
            return
        ex0 = self._ex(0)
        if ex0._resident.is_clean(c):
            for ex in self._cluster.executors:
                ex._mark_resident(c)  # LRU touch on every replica
            return
        # Fresh host data: one PCIe upload to device 0, then a peer broadcast.
        ex0._ensure_resident(c)
        dt = self._cluster.comm.broadcast(float(c.nbytes))
        self._cluster.charge_comm("broadcast", dt, float(c.nbytes))
        for ex in self._cluster.executors[1:]:
            ex._mark_resident(c)

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

    def note_result(self, container) -> None:
        """Frontend write-pipeline output: devices hold their owned slices."""
        if self.nparts == 1:
            self._ex(0).note_result(container)
            return
        self._mark_sliced(container)

    def download(self, container) -> Any:
        """Model the D2H copy-out; sliced results stream from every device."""
        if self.nparts == 1:
            return self._ex(0).download(container)
        if self._is_sliced(container):
            per = int(container.nbytes / self.nparts)
            for p in range(self.nparts):
                charge_transfer(per, "d2h", device=self._dev(p), container=container)
        else:
            charge_transfer(
                container.nbytes, "d2h", device=self._dev(0), container=container
            )
        return container

    # ------------------------------------------------------------------
    # Partition caches
    # ------------------------------------------------------------------

    def _row_parts(self, a: CSRMatrix) -> PartitionedCSR:
        """Row-sharded view of ``a``, with each shard resident on its device."""
        hit = self._parts.get(id(a))
        if hit is not None and hit[0] is a and hit[1] == a.version:
            part = hit[2]
        else:
            part = PartitionedCSR(a, self.nparts, self.splitter)
            self._parts[id(a)] = (a, a.version, part)
        sliced = self._is_sliced(a)
        for ex, shard in zip(self._cluster.executors, part.shards):
            if sliced:
                ex._mark_resident(shard)  # produced on-device; no upload
            else:
                ex._ensure_resident(shard)  # 1/P of the matrix per device
        return part

    def _col_parts(self, a: CSRMatrix) -> PartitionedCSR:
        """Row-sharded Aᵀ for push-mxv / pull-vxm, built at most once per version.

        The transpose itself is the host-memoised ``cached_transpose`` (one
        counting sort per matrix version, shared with every other consumer);
        the *distributed* cost charged here is each device sorting its edge
        block plus one all-to-all shuffling edges to their new owners.  Like
        the single-device aux builds, the charges land outside any capturing
        graph so iteration signatures stay stable.
        """
        hit = self._tparts.get(id(a))
        if hit is not None and hit[0] is a and hit[1] == a.version:
            part = hit[2]
            for ex, shard in zip(self._cluster.executors, part.shards):
                ex._mark_resident(shard)
            return part
        ta = a.cached_transpose()
        part = PartitionedCSR(ta, self.nparts, self.splitter)
        for ex, shard in zip(self._cluster.executors, part.shards):
            # The shard materialises on its device as the sort runs; mark
            # residency first so the pricing launch reads a known buffer.
            ex._mark_resident(shard)
        for p, shard in enumerate(part.shards):
            if shard.nvals:
                self._launch_uncaptured(
                    TRANSPOSE_SHARD, LaunchConfig.cover(shard.nvals), shard, p=p
                )
        dt = self._cluster.comm.all_to_all(float(a.nbytes))
        self._cluster.charge_comm("all_to_all", dt, float(a.nbytes))
        for ex, shard in zip(self._cluster.executors, part.shards):
            ex._mark_resident(shard)
        if current().aux_cache:
            self._tparts[id(a)] = (a, a.version, part)
        return part

    def _launch_uncaptured(self, kernel, cfg, *args, p: int):
        dev = self._dev(p)
        saved, dev.active_graph = dev.active_graph, None
        try:
            return launch(kernel, cfg, *args, device=dev)
        finally:
            dev.active_graph = saved

    # ------------------------------------------------------------------
    # Shared product machinery
    # ------------------------------------------------------------------

    def _exact_add(self, semiring: Semiring, out_t) -> bool:
        if semiring.add.op.name in _EXACT_ADDS:
            return True
        return not out_t.is_floating

    def _push_product(
        self, parts: PartitionedCSR, u: SparseVector, semiring, out_t, flip, mask, desc
    ) -> SparseVector:
        """Sharded push: local expansions → sparse exchange → owner folds."""
        n_out = parts.ncols
        uv = PartitionedVector(u, parts.splitters)
        san = _gbsan.ACTIVE
        partials, send = [], []
        for p, shard in enumerate(parts.shards):
            ush = uv.shard(p)
            if shard.nvals == 0 or ush.nvals == 0:
                send.append(0.0)
                continue
            if san is not None:
                san.note_derived(self._dev(p), ush, u)
            # Each shard re-bins its own frontier slice: a degree-balanced
            # split can still leave one device holding a mega-hub.
            t_p = launch(
                laned(SPMSV_PUSH, push_lane(shard, ush), "scalar"),
                LaunchConfig.cover(max(ush.nvals, 1) * 32),
                shard,
                ush,
                semiring,
                out_t,
                flip,
                mask,
                desc,
                device=self._dev(p),
            )
            partials.append(t_p)
            send.append(float(t_p.nbytes))
        dt = self._cluster.comm.frontier_exchange(send)
        self._cluster.charge_comm("frontier_exchange", dt, float(sum(send)))
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
            # Shard-local lane choice from the shard's own degree stats.
            t_p = launch(
                laned(SPMV_CSR_VECTOR, pull_lane(shard, local_rows), "vector"),
                LaunchConfig.cover(max(nloc, 1) * 32),
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

    def mxv(
        self,
        a: CSRMatrix,
        u: SparseVector,
        semiring: Semiring,
        mask: Optional[SparseVector] = None,
        desc: Descriptor = DEFAULT,
        direction: str = "auto",
        csc=None,
    ) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).mxv(a, u, semiring, mask, desc, direction, csc)
        out_t = semiring.result_type(a.type, u.type)
        # Direction is chosen on the FULL operands — identical inputs, hence
        # an identical choice, to the single-device backend.
        d = choose_direction(
            a,
            u,
            mask,
            desc,
            direction,
            csc is not None,
            push_indptr=csc.indptr if csc is not None else None,
            pull_indptr=a.indptr,
        )
        if d == "push" and not self._exact_add(semiring, out_t):
            d = "pull"
        if mask is not None:
            self._ensure_replicated(mask)
        if d == "push":
            tparts = self._col_parts(a)
            self._ensure_available(u)
            out = self._push_product(tparts, u, semiring, out_t, False, mask, desc)
        else:
            parts = self._row_parts(a)
            self._ensure_replicated(u)
            rows = mask_pull_rows(mask, desc, a.nrows)
            out = self._pull_product(parts, u, semiring, out_t, False, rows)
        self._mark_sliced(out)
        return out

    def vxm(
        self,
        u: SparseVector,
        a: CSRMatrix,
        semiring: Semiring,
        mask: Optional[SparseVector] = None,
        desc: Descriptor = DEFAULT,
        direction: str = "auto",
        csc=None,
    ) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).vxm(u, a, semiring, mask, desc, direction, csc)
        out_t = semiring.result_type(u.type, a.type)
        d = choose_direction(
            a,
            u,
            mask,
            desc,
            direction,
            True,
            push_indptr=a.indptr,
            pull_indptr=csc.indptr if csc is not None else None,
        )
        if d == "push" and not self._exact_add(semiring, out_t):
            d = "pull"
        if mask is not None:
            self._ensure_replicated(mask)
        if d == "push":
            parts = self._row_parts(a)
            self._ensure_available(u)
            out = self._push_product(parts, u, semiring, out_t, True, mask, desc)
        else:
            tparts = self._col_parts(a)
            self._ensure_replicated(u)
            rows = mask_pull_rows(mask, desc, a.ncols)
            out = self._pull_product(tparts, u, semiring, out_t, True, rows)
        self._mark_sliced(out)
        return out

    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).mxm(a, b, semiring, mask, desc)
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
            lane = spgemm_lane(shard)
            if masked:
                keys = mask_keys_for(_slice_rows(mask, lo, hi), desc)
                blk = launch(
                    laned(SPGEMM_HASH_MASKED, lane, "scalar"),
                    cfg, shard, b, semiring, out_t, keys,
                    device=self._dev(p),
                )
            else:
                blk = launch(
                    laned(SPGEMM_HASH, lane, "scalar"),
                    cfg, shard, b, semiring, out_t, device=self._dev(p),
                )
            blocks.append(blk)
        out = concat_row_blocks(blocks, b.ncols, out_t)
        self._mark_sliced(out)
        return out

    # ------------------------------------------------------------------
    # Elementwise (sliced by equal output ranges; bit-exact elementwise)
    # ------------------------------------------------------------------

    def _ewise_sharded_vec(self, kernel, u, v, kargs, semantic) -> SparseVector:
        self._ensure_available(u)
        self._ensure_available(v)
        sp = equal_rows_splitters(u.size, self.nparts)
        pu, pv = PartitionedVector(u, sp), PartitionedVector(v, sp)
        san = _gbsan.ACTIVE
        outs = []
        for p in range(self.nparts):
            su, sv = pu.shard(p), pv.shard(p)
            outs.append(semantic(su, sv))
            n = su.nvals + sv.nvals
            if n:
                if san is not None:
                    san.note_derived(self._dev(p), su, u)
                    san.note_derived(self._dev(p), sv, v)
                launch(kernel, LaunchConfig.cover(n), su, sv, *kargs, device=self._dev(p))
        out = PartitionedVector.reassemble(outs, sp, typ=outs[0].type)
        self._mark_sliced(out)
        return out

    def _ewise_sharded_mat(self, kernel, a, b, kargs, semantic) -> CSRMatrix:
        self._ensure_available(a)
        self._ensure_available(b)
        sp = equal_rows_splitters(a.nrows, self.nparts)
        san = _gbsan.ACTIVE
        outs = []
        for p in range(self.nparts):
            lo, hi = int(sp[p]), int(sp[p + 1])
            sa, sb = _slice_rows(a, lo, hi), _slice_rows(b, lo, hi)
            outs.append(semantic(sa, sb))
            n = sa.nvals + sb.nvals
            if n:
                if san is not None:
                    san.note_derived(self._dev(p), sa, a)
                    san.note_derived(self._dev(p), sb, b)
                launch(kernel, LaunchConfig.cover(n), sa, sb, *kargs, device=self._dev(p))
        out = concat_row_blocks(outs, a.ncols, outs[0].type)
        self._mark_sliced(out)
        return out

    def ewise_add_vector(self, u, v, op: BinaryOp) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).ewise_add_vector(u, v, op)
        return self._ewise_sharded_vec(
            EWISE_ADD_V, u, v, (op,), lambda su, sv: ewise_add_vec(su, sv, op)
        )

    def ewise_mult_vector(self, u, v, op: BinaryOp) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).ewise_mult_vector(u, v, op)
        return self._ewise_sharded_vec(
            EWISE_MULT_V, u, v, (op,), lambda su, sv: ewise_mult_vec(su, sv, op)
        )

    def ewise_add_matrix(self, a, b, op: BinaryOp) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).ewise_add_matrix(a, b, op)
        from ..cpu.ewise import ewise_add_mat

        return self._ewise_sharded_mat(
            EWISE_ADD_M, a, b, (op,), lambda sa, sb: ewise_add_mat(sa, sb, op)
        )

    def ewise_mult_matrix(self, a, b, op: BinaryOp) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).ewise_mult_matrix(a, b, op)
        from ..cpu.ewise import ewise_mult_mat

        return self._ewise_sharded_mat(
            EWISE_MULT_M, a, b, (op,), lambda sa, sb: ewise_mult_mat(sa, sb, op)
        )

    def ewise_apply_vector(self, u, v, binop, unop, union=True) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).ewise_apply_vector(u, v, binop, unop, union)

        def semantic(su, sv):
            t = ewise_add_vec(su, sv, binop) if union else ewise_mult_vec(su, sv, binop)
            return apply_vec(t, unop)

        return self._ewise_sharded_vec(
            EWISE_APPLY_FUSED_V, u, v, (binop, unop, union), semantic
        )

    def ewise_apply_matrix(self, a, b, binop, unop, union=True) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).ewise_apply_matrix(a, b, binop, unop, union)
        from ..cpu.ewise import ewise_add_mat, ewise_mult_mat

        def semantic(sa, sb):
            t = ewise_add_mat(sa, sb, binop) if union else ewise_mult_mat(sa, sb, binop)
            return apply_mat(t, unop)

        return self._ewise_sharded_mat(
            EWISE_APPLY_FUSED_M, a, b, (binop, unop, union), semantic
        )

    # ------------------------------------------------------------------
    # Lazy-optimizer hooks (fused chains and mask sinking), sharded
    # ------------------------------------------------------------------

    def ewise_reduce_vector(self, u, v, binop, unop, union, monoid, out_type):
        """Fused ewise→reduce: one launch per shard, then a scalar allreduce.

        The communication is exactly the unfused pair's: sliced operands,
        a sliced result, and the reduction's allreduce.  The value is the
        full-vector fold, bit-identical to the unfused reduce.
        """
        if self.nparts == 1:
            return self._ex(0).ewise_reduce_vector(
                u, v, binop, unop, union, monoid, out_type
            )
        self._ensure_available(u)
        self._ensure_available(v)
        sp = equal_rows_splitters(u.size, self.nparts)
        pu, pv = PartitionedVector(u, sp), PartitionedVector(v, sp)
        san = _gbsan.ACTIVE
        outs = []
        for p in range(self.nparts):
            su, sv = pu.shard(p), pv.shard(p)
            args = (su, sv, binop, unop, union, monoid, out_type)
            n = su.nvals + sv.nvals
            if not n:
                outs.append(EWISE_REDUCE_FUSED_V.run(*args)[0])
                continue
            if san is not None:
                san.note_derived(self._dev(p), su, u)
                san.note_derived(self._dev(p), sv, v)
            t_p, _ = launch(
                EWISE_REDUCE_FUSED_V, LaunchConfig.cover(n), *args, device=self._dev(p)
            )
            outs.append(t_p)
        t = PartitionedVector.reassemble(outs, sp, typ=out_type)
        self._mark_sliced(t)
        rt = monoid.result_type(t.type)
        dt = self._cluster.comm.allreduce_scalar(rt.nbytes)
        self._cluster.charge_comm("allreduce", dt, float(2 * (self.nparts - 1) * rt.nbytes))
        return t, rt.cast(monoid.reduce_array(t.values, t.type))

    def fill_ewise_vector(self, value, size, fill_type, other, binop, fill_first):
        """Fused fill→ewise: each device generates its owned fill range."""
        if self.nparts == 1:
            return self._ex(0).fill_ewise_vector(
                value, size, fill_type, other, binop, fill_first
            )
        self._ensure_available(other)
        sp = equal_rows_splitters(int(size), self.nparts)
        po = PartitionedVector(other, sp)
        san = _gbsan.ACTIVE
        outs = []
        for p in range(self.nparts):
            lo, hi = int(sp[p]), int(sp[p + 1])
            so = po.shard(p)
            if san is not None:
                san.note_derived(self._dev(p), so, other)
            outs.append(
                launch(
                    FILL_EWISE_FUSED_V,
                    LaunchConfig.cover(max(hi - lo, 1) + so.nvals),
                    value, hi - lo, fill_type, so, binop, fill_first,
                    device=self._dev(p),
                )
            )
        out = PartitionedVector.reassemble(outs, sp, typ=outs[0].type)
        self._mark_sliced(out)
        return out

    def sink_restrict(self, container, mask):
        """Mask sinking: each device restricts its owned slice on-device."""
        if self.nparts == 1:
            return self._ex(0).sink_restrict(container, mask)
        if mask is None:
            return container
        self._ensure_available(container)
        self._ensure_available(mask)
        out = mask_restrict(container, mask)
        if out is not container:
            self._mark_sliced(out)
        return out

    # ------------------------------------------------------------------
    # Fused BFS frontier step
    # ------------------------------------------------------------------

    def frontier_step(
        self,
        levels: SparseVector,
        frontier: SparseVector,
        a: CSRMatrix,
        value: Any,
        semiring: Semiring,
        desc: Descriptor,
        direction: str = "auto",
        csc=None,
    ):
        if self.nparts == 1:
            return self._ex(0).frontier_step(
                levels, frontier, a, value, semiring, desc, direction, csc
            )
        from ...core.accumulate import merge_vector

        out_t = semiring.result_type(frontier.type, a.type)
        d = choose_direction(
            a,
            frontier,
            levels,
            desc,
            direction,
            True,
            push_indptr=a.indptr,
            pull_indptr=csc.indptr if csc is not None else None,
        )
        if d == "push" and not self._exact_add(semiring, out_t):
            d = "pull"
        # Level assign: every device scatters the frontier into its replica
        # of the levels vector (the visited bitmap is replicated; keeping the
        # replicas coherent is what the exchanged frontier pays for).
        new_levels = _frontier_assign(levels, frontier, value)
        nupd = frontier.nvals
        for p in range(self.nparts):
            launch(
                SCATTER_ASSIGN,
                LaunchConfig.cover(max(nupd, 1)),
                float(nupd),
                8,
                device=self._dev(p),
                san_writes=(new_levels,),
            )
        for ex in self._cluster.executors:
            ex._mark_resident(new_levels)
        if d == "push":
            parts = self._row_parts(a)
            self._ensure_available(frontier)
            t = self._push_product(
                parts, frontier, semiring, out_t, True, new_levels, desc
            )
        else:
            tparts = self._col_parts(a)
            self._ensure_replicated(frontier)
            rows = mask_pull_rows(new_levels, desc, a.ncols)
            t = self._pull_product(tparts, frontier, semiring, out_t, True, rows)
        new_frontier = merge_vector(frontier, t, new_levels, None, desc)
        return new_levels, new_frontier

    # ------------------------------------------------------------------
    # Apply / reduce / transpose
    # ------------------------------------------------------------------

    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).apply_vector(u, op)
        self._ensure_available(u)
        sp = equal_rows_splitters(u.size, self.nparts)
        pu = PartitionedVector(u, sp)
        san = _gbsan.ACTIVE
        outs = []
        for p in range(self.nparts):
            su = pu.shard(p)
            outs.append(apply_vec(su, op))
            if su.nvals:
                if san is not None:
                    san.note_derived(self._dev(p), su, u)
                launch(APPLY_V, LaunchConfig.cover(su.nvals), su, op, device=self._dev(p))
        out = PartitionedVector.reassemble(outs, sp, typ=op.result_type(u.type))
        self._mark_sliced(out)
        return out

    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).apply_matrix(a, op)
        parts = self._row_parts(a)
        outs = []
        for p, shard in enumerate(parts.shards):
            outs.append(apply_mat(shard, op))
            if shard.nvals:
                launch(
                    APPLY_M, LaunchConfig.cover(shard.nvals), shard, op,
                    device=self._dev(p),
                )
        out = concat_row_blocks(outs, a.ncols, op.result_type(a.type))
        self._mark_sliced(out)
        return out

    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        if self.nparts == 1:
            return self._ex(0).reduce_vector_scalar(u, monoid)
        self._ensure_available(u)
        t = monoid.result_type(u.type)
        pu = PartitionedVector(u, equal_rows_splitters(u.size, self.nparts))
        san = _gbsan.ACTIVE
        for p in range(self.nparts):
            sh = pu.shard(p)
            if sh.nvals:
                if san is not None:
                    san.note_derived(self._dev(p), sh, u)
                launch(
                    REDUCE_TREE, LaunchConfig.cover(sh.nvals), sh.values, monoid,
                    u.type, device=self._dev(p), san_reads=(sh,),
                )
        dt = self._cluster.comm.allreduce_scalar(t.nbytes)
        self._cluster.charge_comm("allreduce", dt, float(2 * (self.nparts - 1) * t.nbytes))
        # The value itself is the full-array fold — bit-identical to the
        # single-device REDUCE_TREE semantic; the charges above price the
        # sharded tree + scalar allreduce that produce it.
        return t.cast(monoid.reduce_array(u.values, u.type))

    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).reduce_matrix_vector(a, monoid)
        parts = self._row_parts(a)
        outs = []
        for p, shard in enumerate(parts.shards):
            outs.append(reduce_mat_vector(shard, monoid))
            if shard.nvals:
                launch(
                    REDUCE_ROWS, LaunchConfig.cover(max(shard.nrows, 1) * 32),
                    shard, monoid, device=self._dev(p),
                )
        out = PartitionedVector.reassemble(
            outs, parts.splitters, typ=monoid.result_type(a.type)
        )
        self._mark_sliced(out)
        return out

    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        if self.nparts == 1:
            return self._ex(0).reduce_matrix_scalar(a, monoid)
        parts = self._row_parts(a)
        t = monoid.result_type(a.type)
        for p, shard in enumerate(parts.shards):
            if shard.nvals:
                launch(
                    REDUCE_TREE, LaunchConfig.cover(shard.nvals), shard.values,
                    monoid, a.type, device=self._dev(p), san_reads=(shard,),
                )
        dt = self._cluster.comm.allreduce_scalar(t.nbytes)
        self._cluster.charge_comm("allreduce", dt, float(2 * (self.nparts - 1) * t.nbytes))
        return t.cast(monoid.reduce_array(a.values, a.type))

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).transpose(a)
        parts = self._row_parts(a)
        for p, shard in enumerate(parts.shards):
            if shard.nvals:
                launch(
                    TRANSPOSE_SHARD, LaunchConfig.cover(shard.nvals), shard,
                    device=self._dev(p),
                )
        dt = self._cluster.comm.all_to_all(float(a.nbytes))
        self._cluster.charge_comm("all_to_all", dt, float(a.nbytes))
        out = a.transpose()
        self._mark_sliced(out)
        return out

    # ------------------------------------------------------------------
    # Select / indexed apply / extract / assign accounting
    # ------------------------------------------------------------------

    def _charge_compact(self, kernel, src, n_items: float, item_bytes: int) -> None:
        per = max(float(n_items) / self.nparts, 1.0)
        for p in range(self.nparts):
            launch(
                kernel, LaunchConfig.cover(int(per)), _noop, per, item_bytes,
                device=self._dev(p), san_reads=(src,),
            )

    def select_vector(self, u, op, thunk):
        if self.nparts == 1:
            return self._ex(0).select_vector(u, op, thunk)
        self._ensure_available(u)
        self._charge_compact(SELECT_COMPACT, u, u.nvals, u.type.nbytes)
        out = Backend.select_vector(self, u, op, thunk)
        self._mark_sliced(out)
        return out

    def select_matrix(self, a, op, thunk):
        if self.nparts == 1:
            return self._ex(0).select_matrix(a, op, thunk)
        self._ensure_available(a)
        self._charge_compact(SELECT_COMPACT, a, a.nvals, a.type.nbytes)
        out = Backend.select_matrix(self, a, op, thunk)
        self._mark_sliced(out)
        return out

    def apply_indexop_vector(self, u, op, thunk):
        if self.nparts == 1:
            return self._ex(0).apply_indexop_vector(u, op, thunk)
        self._ensure_available(u)
        self._charge_compact(SELECT_COMPACT, u, u.nvals, u.type.nbytes)
        out = Backend.apply_indexop_vector(self, u, op, thunk)
        self._mark_sliced(out)
        return out

    def apply_indexop_matrix(self, a, op, thunk):
        if self.nparts == 1:
            return self._ex(0).apply_indexop_matrix(a, op, thunk)
        self._ensure_available(a)
        self._charge_compact(SELECT_COMPACT, a, a.nvals, a.type.nbytes)
        out = Backend.apply_indexop_matrix(self, a, op, thunk)
        self._mark_sliced(out)
        return out

    def extract_vector(self, u: SparseVector, idx: np.ndarray) -> SparseVector:
        if self.nparts == 1:
            return self._ex(0).extract_vector(u, idx)
        self._ensure_available(u)
        self._charge_compact(GATHER, u, len(idx), u.type.nbytes)
        out = Backend.extract_vector(self, u, idx)
        self._mark_sliced(out)
        return out

    def extract_matrix(self, a: CSRMatrix, rows: np.ndarray, cols: np.ndarray) -> CSRMatrix:
        if self.nparts == 1:
            return self._ex(0).extract_matrix(a, rows, cols)
        self._ensure_available(a)
        self._charge_compact(GATHER, a, float(len(rows)) * max(len(cols), 1), a.type.nbytes)
        out = Backend.extract_matrix(self, a, rows, cols)
        self._mark_sliced(out)
        return out

    def charge_assign(self, nvals: int, out) -> None:
        if self.nparts == 1:
            return self._ex(0).charge_assign(nvals, out)
        # Assign updates the replicated target on every device.
        for p in range(self.nparts):
            launch(
                SCATTER_ASSIGN, LaunchConfig.cover(max(nvals, 1)), float(nvals), 8,
                device=self._dev(p), san_writes=(out,),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Backend multi_sim P={self.nparts} {self.splitter} "
            f"{self.topology.name}>"
        )
