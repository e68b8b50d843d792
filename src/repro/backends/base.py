"""Backend interface.

A backend supplies the *compute* kernels for GraphBLAS operations over the
shared containers.  It receives fully-validated, canonical containers and a
semiring/operator and returns the raw result ``T``; the frontend applies the
accumulate/mask/replace write pipeline (see :mod:`repro.core.accumulate`).
This split is GBTL's frontend/backend separation: the paper's claim is that
algorithms written against the frontend run unchanged on a sequential CPU
backend or a CUDA backend, and here likewise on :mod:`reference`, :mod:`cpu`,
and :mod:`cuda_sim` backends.

``mxv`` and ``vxm`` are one product: both call :meth:`Backend._product`
with ``flip`` telling the column picture (``u ⊗ A``) from the row picture
(``A ⊗ u``), and each backend implements that router once.  It resolves
``direction`` ("push"/"pull"/"auto", the Fig. 5 ablation knob) and reads
Aᵀ on exactly one side: a push ``mxv`` and a pull ``vxm`` read the
container memo ``a.cached_transpose()``, the other two read ``a``.  The
optional ``mask``/``desc`` hints may prune work (pre-filtering T by the
effective mask commutes with the write pipeline).

Cold-path kernels (extract, transpose, kronecker) have container-level
default implementations so a backend only must provide the hot kernels.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

import numpy as np

from ..containers.bitmap import locate
from ..containers.csr import CSRMatrix
from ..containers.sparsevec import SparseVector
from ..core.descriptor import DEFAULT, Descriptor
from ..core.monoid import Monoid
from ..core.operators import BinaryOp, IndexUnaryOp, UnaryOp
from ..core.semiring import Semiring
from ..types import promote

__all__ = ["Backend", "frontier_assign", "product_type"]


def frontier_assign(levels: SparseVector, frontier: SparseVector, value: Any) -> SparseVector:
    """``assign_scalar(levels, value, frontier.indices)``: BFS's level write.

    Every backend's frontier step starts with it.  ``frontier.indices``
    must be canonical (sorted unique), which the write pipeline guarantees
    for any vector container.
    """
    from ..core.assign import merge_region_vector

    idx = frontier.indices
    vals = np.full(idx.size, levels.type.cast(value), dtype=levels.type.dtype)
    return merge_region_vector(levels, idx.copy(), vals, idx, None, None, DEFAULT)


def product_type(semiring: Semiring, a: CSRMatrix, u: SparseVector, flip: bool):
    """Output domain of ``A ⊗ u`` (``flip=False``) or ``u ⊗ A`` (``flip=True``)."""
    if flip:
        return semiring.result_type(u.type, a.type)
    return semiring.result_type(a.type, u.type)


class Backend(ABC):
    """Abstract compute backend. Subclasses set :attr:`name`."""

    name: str = "abstract"

    # ------------------------------------------------------------------
    # Matrix-vector and matrix-matrix products (hot path, abstract)
    # ------------------------------------------------------------------

    def mxv(
        self,
        a: CSRMatrix,
        u: SparseVector,
        semiring: Semiring,
        mask: Optional[SparseVector] = None,
        desc: Descriptor = DEFAULT,
        direction: str = "auto",
    ) -> SparseVector:
        """``t = A ⊗ u`` (row picture); the multiply is ``mult(A_ij, u_j)``."""
        return self._product(a, u, semiring, False, mask, desc, direction)

    def vxm(
        self,
        u: SparseVector,
        a: CSRMatrix,
        semiring: Semiring,
        mask: Optional[SparseVector] = None,
        desc: Descriptor = DEFAULT,
        direction: str = "auto",
    ) -> SparseVector:
        """``t = u ⊗ A`` (column picture); the multiply is ``mult(u_k, A_kj)``."""
        return self._product(a, u, semiring, True, mask, desc, direction)

    @abstractmethod
    def _product(
        self,
        a: CSRMatrix,
        u: SparseVector,
        semiring: Semiring,
        flip: bool,
        mask: Optional[SparseVector],
        desc: Descriptor,
        direction: str,
    ) -> SparseVector:
        """The push/pull router behind :meth:`mxv` (``flip=False``) and
        :meth:`vxm` (``flip=True``).

        ``mask``/``desc`` are pruning hints.  The side that needs Aᵀ (push
        mxv, pull vxm) reads ``a.cached_transpose()``, the one memo per
        matrix version.
        """

    @abstractmethod
    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        """``T = A ⊗ B``."""

    # ------------------------------------------------------------------
    # Elementwise (hot path, abstract)
    # ------------------------------------------------------------------

    @abstractmethod
    def ewise_add_vector(
        self, u: SparseVector, v: SparseVector, op: BinaryOp
    ) -> SparseVector:
        """Union elementwise: op where both present, pass-through otherwise."""

    @abstractmethod
    def ewise_mult_vector(
        self, u: SparseVector, v: SparseVector, op: BinaryOp
    ) -> SparseVector:
        """Intersection elementwise: op only where both present."""

    @abstractmethod
    def ewise_add_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        """Union elementwise over matrices."""

    @abstractmethod
    def ewise_mult_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        """Intersection elementwise over matrices."""

    # ------------------------------------------------------------------
    # Fused kernels — composition defaults
    # ------------------------------------------------------------------

    def ewise_apply_vector(
        self,
        u: SparseVector,
        v: SparseVector,
        binop: BinaryOp,
        unop: UnaryOp,
        union: bool = True,
    ) -> SparseVector:
        """``unop(u (∪|∩) v)`` — elementwise combine immediately mapped.

        The default composes the two abstract kernels; fused backends (the
        simulated GPU) override this with a single kernel so the
        intermediate never round-trips through memory or costs a second
        launch.
        """
        t = (
            self.ewise_add_vector(u, v, binop)
            if union
            else self.ewise_mult_vector(u, v, binop)
        )
        return self.apply_vector(t, unop)

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
        """One fused BFS-style expansion step; returns (new_levels, new_frontier).

        Semantics are exactly :func:`frontier_assign` followed by
        ``frontier<levels, desc> = frontier ⊗ A`` (vxm) — the loop body of
        level BFS.  The default composes the region merge and the masked
        product; the simulated GPU overrides it with one fused kernel
        launch, collapsing the per-iteration launch count.
        """
        from ..core.accumulate import merge_vector

        self.charge_assign(frontier.nvals, levels)
        new_levels = frontier_assign(levels, frontier, value)
        t = self.vxm(frontier, a, semiring, new_levels, desc, direction)
        new_frontier = merge_vector(frontier, t, new_levels, None, desc)
        return new_levels, new_frontier

    def ewise_reduce_vector(
        self,
        u: SparseVector,
        v: SparseVector,
        binop: BinaryOp,
        unop: Optional[UnaryOp],
        union: bool,
        monoid: Monoid,
        out_type,
    ) -> tuple:
        """Elementwise combine (+ optional map), cast, and full fold.

        Returns ``(t, value)``: the combined vector already cast to the
        output's domain, and the monoid fold over its values.  The lazy
        optimizer's ewise→reduce fusion targets this hook; the default
        composes the abstract kernels (bit-identical to the separate ops),
        while the simulated GPU runs the whole chain as one kernel so the
        intermediate never round-trips through device memory.
        """
        if unop is not None:
            t = self.ewise_apply_vector(u, v, binop, unop, union)
        elif union:
            t = self.ewise_add_vector(u, v, binop)
        else:
            t = self.ewise_mult_vector(u, v, binop)
        t = t.astype(out_type)
        return t, self.reduce_vector_scalar(t, monoid)

    def fill_ewise_vector(
        self,
        value: Any,
        size: int,
        fill_type,
        other: SparseVector,
        binop: BinaryOp,
        fill_first: bool,
    ) -> SparseVector:
        """Constant full-range fill combined elementwise (union) with ``other``.

        Target of the lazy optimizer's fill→ewise fusion (the PageRank
        ``assign_scalar; ewise_add`` teleport idiom).  The default
        materialises the fill and composes; the simulated GPU generates the
        constant in-register inside one kernel, so the dense fill vector is
        never allocated on the device nor scattered by a separate launch.
        """
        fill = SparseVector.full(size, fill_type.cast(value), fill_type)
        if fill_first:
            return self.ewise_add_vector(fill, other, binop)
        return self.ewise_add_vector(other, fill, binop)

    def sink_restrict(self, container: SparseVector, mask) -> SparseVector:
        """Restrict an operand to a mask's stored index set (mask sinking).

        The lazy optimizer calls this on the inputs of elementwise/apply
        nodes whose output mask is non-complemented: entries the mask can
        never admit are dropped *before* the kernel runs.  Identity by
        default; the simulated GPU returns a restricted view so kernel work
        scales with the mask instead of the operands.
        """
        del mask
        return container

    # ------------------------------------------------------------------
    # Apply / select / reduce (hot path, abstract)
    # ------------------------------------------------------------------

    @abstractmethod
    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        """Map ``op`` over stored values."""

    @abstractmethod
    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        """Map ``op`` over stored values."""

    @abstractmethod
    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        """Fold all stored values (identity when empty)."""

    @abstractmethod
    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        """Row-wise fold; rows with no entries produce no entry."""

    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        """Fold every stored value of a matrix. Defaults to monoid fold."""
        return monoid.reduce_array(a.values, a.type)

    # ------------------------------------------------------------------
    # Host-computed ops: select, apply with index, extract
    # ------------------------------------------------------------------

    def host_op(self, kind: str, src: Any, n: float, compute: Callable[[], Any]) -> Any:
        """Run one host-computed op over ``src``: returns ``compute()``.

        ``kind`` is ``"select"`` (select, apply with an index op) or
        ``"gather"`` (extract), and ``n`` the op's work count.  Host
        backends just compute; the simulated backends price the op as
        device kernels of that kind around the same computation.
        """
        return compute()

    def select_vector(self, u: SparseVector, op: IndexUnaryOp, thunk: Any) -> SparseVector:
        """Keep entries where ``op(x, i, 0, thunk)`` is truthy."""

        def compute() -> SparseVector:
            if u.nvals == 0:
                return SparseVector.empty(u.size, u.type)
            keep = np.asarray(
                op(u.values, u.indices, np.zeros_like(u.indices), thunk), dtype=bool
            )
            return SparseVector(u.size, u.indices[keep], u.values[keep], u.type)

        return self.host_op("select", u, float(u.nvals), compute)

    def select_matrix(self, a: CSRMatrix, op: IndexUnaryOp, thunk: Any) -> CSRMatrix:
        """Keep entries where ``op(x, i, j, thunk)`` is truthy."""

        def compute() -> CSRMatrix:
            if a.nvals == 0:
                return CSRMatrix.empty(a.nrows, a.ncols, a.type)
            rows = a.row_ids()
            keep = np.asarray(op(a.values, rows, a.indices, thunk), dtype=bool)
            return CSRMatrix.from_rows(
                a.nrows, a.ncols, rows[keep], a.indices[keep], a.values[keep], a.type
            )

        return self.host_op("select", a, float(a.nvals), compute)

    def apply_indexop_vector(
        self, u: SparseVector, op: IndexUnaryOp, thunk: Any
    ) -> SparseVector:
        """Replace each stored value with ``op(x, i, 0, thunk)``."""

        def compute() -> SparseVector:
            if u.nvals == 0:
                return SparseVector.empty(u.size, op.result_type(u.type))
            out_t = op.result_type(u.type)
            vals = np.asarray(
                op(u.values, u.indices, np.zeros_like(u.indices), thunk)
            ).astype(out_t.dtype, copy=False)
            return SparseVector(u.size, u.indices.copy(), vals, out_t)

        return self.host_op("select", u, float(u.nvals), compute)

    def apply_indexop_matrix(self, a: CSRMatrix, op: IndexUnaryOp, thunk: Any) -> CSRMatrix:
        """Replace each stored value with ``op(x, i, j, thunk)``."""

        def compute() -> CSRMatrix:
            out_t = op.result_type(a.type)
            if a.nvals == 0:
                return CSRMatrix.empty(a.nrows, a.ncols, out_t)
            vals = np.asarray(op(a.values, a.row_ids(), a.indices, thunk)).astype(
                out_t.dtype, copy=False
            )
            return CSRMatrix(
                a.nrows, a.ncols, a.indptr.copy(), a.indices.copy(), vals, out_t
            )

        return self.host_op("select", a, float(a.nvals), compute)

    # ------------------------------------------------------------------
    # Structural kernels — container-level defaults
    # ------------------------------------------------------------------

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        return a.cached_transpose()

    def charge_assign(self, nvals: int, out) -> None:
        """Accounting hook: the frontend's assign scatters ``nvals`` entries.

        Real backends do nothing (assign runs in the shared frontend merge);
        the simulated GPU charges a scatter kernel so assign shows up on the
        device timeline like it would in a CUDA backend.
        """

    def busy_us(self) -> float:
        """Monotone busy time in µs; batch costs are differences of it.

        Host backends read the wall clock.  The simulated backends return
        their deterministic simulated time instead.
        """
        return time.perf_counter() * 1e6

    def note_result(self, container) -> None:
        """Accounting hook: ``container`` was produced by the write pipeline.

        Real backends do nothing.  The simulated GPU marks the container
        device-resident without charging PCIe traffic — results of device
        computation do not need a host→device copy before their next use.
        """

    def compact(self, base: CSRMatrix, overlay) -> None:
        """Fold a streaming delta overlay into ``base`` in place.

        ``install_arrays`` keeps the container's identity and bumps its
        version.  One rule on every backend carries Aᵀ across it: the
        transpose known before the fold (``base.known_transpose()``), if
        the backend holds it, gets the transposed delta merged in
        (:func:`~repro.streaming.overlay.compact_merge`) and is seated as
        the new version's memo.  A host backend holds whatever it knows, and
        merges for free; the simulated GPU backends override this to charge
        the delta upload and the merge, and carry only a transpose clean on
        their devices.
        """
        from ..streaming.overlay import compact_merge

        arrays, memo = compact_merge(base, overlay, base.known_transpose())
        base.install_arrays(*arrays)
        if memo is not None:
            base.seat_transpose(memo)

    def extract_vector(self, u: SparseVector, idx: np.ndarray) -> SparseVector:
        """``t[k] = u[idx[k]]`` keeping only present source entries."""
        idx = np.asarray(idx, dtype=np.int64)

        def compute() -> SparseVector:
            present, pos = locate(u.indices, idx, u.size)
            out_idx = np.flatnonzero(present).astype(np.int64)
            out_vals = u.values[pos[present]] if present.any() else np.empty(0, dtype=u.type.dtype)
            return SparseVector(idx.size, out_idx, out_vals, u.type)

        return self.host_op("gather", u, len(idx), compute)

    def extract_matrix(self, a: CSRMatrix, rows: np.ndarray, cols: np.ndarray) -> CSRMatrix:
        """``T[p, q] = A[rows[p], cols[q]]`` keeping only present entries."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)

        def compute() -> CSRMatrix:
            # Column gather table: for each source col, list of target positions.
            col_order = np.argsort(cols, kind="stable")  # gbsan: ok(argsort) -- reference-backend extract, correctness oracle only
            sorted_cols = cols[col_order]
            out_rows, out_cols, out_vals = [], [], []
            for p, src_r in enumerate(rows):
                cidx, cvals = a.row(int(src_r))
                if cidx.size == 0:
                    continue
                # For each selected column q, locate A[src_r, cols[q]].
                loc = np.searchsorted(cidx, sorted_cols)
                loc_c = np.minimum(loc, cidx.size - 1)
                present = (loc < cidx.size) & (cidx[loc_c] == sorted_cols)
                hits = np.flatnonzero(present)
                if hits.size == 0:
                    continue
                out_rows.append(np.full(hits.size, p, dtype=np.int64))
                out_cols.append(col_order[hits])
                out_vals.append(cvals[loc[hits]])
            from ..containers.coo import COO
            from ..containers.convert import coo_to_csr

            if not out_rows:
                return CSRMatrix.empty(rows.size, cols.size, a.type)
            coo = COO(
                rows.size,
                cols.size,
                np.concatenate(out_rows),
                np.concatenate(out_cols),
                np.concatenate(out_vals),
                a.type,
            )
            # cols (and hence out_cols) may repeat when the extraction index
            # repeats a column; the spec keeps each as its own entry, and
            # distinct target positions never collide, so no dup op is needed.
            return coo_to_csr(coo, dup=None)

        return self.host_op("gather", a, float(len(rows)) * max(len(cols), 1), compute)

    def kronecker(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        """Kronecker product with ``op`` combining value pairs."""
        out_t = op.result_type(promote(a.type, b.type))
        if a.nvals == 0 or b.nvals == 0:
            return CSRMatrix.empty(a.nrows * b.nrows, a.ncols * b.ncols, out_t)
        rr = (a.row_ids()[:, None] * b.nrows + b.row_ids()[None, :]).ravel()
        cc = (a.indices[:, None] * b.ncols + b.indices[None, :]).ravel()
        vv = np.asarray(op(np.repeat(a.values, b.nvals), np.tile(b.values, a.nvals)))
        from ..containers.coo import COO
        from ..containers.convert import coo_to_csr

        coo = COO(a.nrows * b.nrows, a.ncols * b.ncols, rr, cc, vv.astype(out_t.dtype), out_t)
        return coo_to_csr(coo, dup=None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Backend {self.name}>"
