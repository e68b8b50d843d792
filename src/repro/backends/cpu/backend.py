"""The CPU backend — vectorized NumPy kernels.

The measured "fast CPU" baseline in every benchmark.  It consumes the same
containers and produces bit-identical results to the reference backend (the
test suite enforces this), but each kernel is a handful of whole-array NumPy
passes instead of Python loops.

``mxv``/``vxm`` run the push/pull direction optimization through one
router, :meth:`CpuBackend._product`: the side that needs Aᵀ (push mxv, pull
vxm) reads the container's memo (``a.cached_transpose()``), and ``auto``
compares the frontier's exact degree sum against nnz(A) (see
:func:`~repro.backends.cpu.spmv.choose_direction`).
"""

from __future__ import annotations

from typing import Any, Optional

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.monoid import Monoid
from ...core.operators import BinaryOp, UnaryOp
from ...core.semiring import Semiring
from ..base import Backend, product_type
from .ewise import ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec
from .reduce_apply import (
    apply_mat,
    apply_vec,
    reduce_mat_scalar,
    reduce_mat_vector,
    reduce_vec_scalar,
)
from .spgemm import mask_keys_for, spgemm_esr, spgemm_masked_esr
from .spmv import (
    choose_direction,
    mask_pull_rows,
    row_gather_product,
    scatter_product,
)

__all__ = ["CpuBackend"]


class CpuBackend(Backend):
    """Vectorized NumPy backend."""

    name = "cpu"

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    def _product(self, a, u, semiring, flip, mask, desc, direction) -> SparseVector:
        out_t = product_type(semiring, a, u, flip)
        push = choose_direction(a, u, mask, desc, direction, flip) == "push"
        csr = a if push == flip else a.cached_transpose()
        if push:
            return scatter_product(
                csr, u, semiring, out_t, flip=flip, mask=mask, desc=desc
            )
        rows = mask_pull_rows(mask, desc, csr.nrows)
        return row_gather_product(csr, u, semiring, out_t, flip=flip, rows=rows)

    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        out_t = semiring.result_type(a.type, b.type)
        if mask is not None and not desc.complement_mask:
            # Masked SpGEMM: pre-filtering T by the mask commutes with the
            # write pipeline and skips sorting the partial products that the
            # mask would discard anyway.
            return spgemm_masked_esr(
                a, b, semiring, out_t, mask_keys_for(mask, desc)
            )
        return spgemm_esr(a, b, semiring, out_t)

    # ------------------------------------------------------------------
    # Elementwise
    # ------------------------------------------------------------------

    def ewise_add_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        return ewise_add_vec(u, v, op)

    def ewise_mult_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        return ewise_mult_vec(u, v, op)

    def ewise_add_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        return ewise_add_mat(a, b, op)

    def ewise_mult_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        return ewise_mult_mat(a, b, op)

    # ------------------------------------------------------------------
    # Apply / reduce
    # ------------------------------------------------------------------

    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        return apply_vec(u, op)

    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        return apply_mat(a, op)

    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        return reduce_vec_scalar(u, monoid)

    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        return reduce_mat_vector(a, monoid)

    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        return reduce_mat_scalar(a, monoid)
