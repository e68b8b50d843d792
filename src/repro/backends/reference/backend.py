"""The reference backend — GBTL's "sequential" analogue.

Correctness-first, pure-Python kernels.  Every operation converts the shared
NumPy containers into plain dictionaries, loops, and converts back.  Slow by
construction; it is the oracle the other backends are verified against and
the sequential baseline in every benchmark table.
"""

from __future__ import annotations

from typing import Any, Optional

from ...containers.csr import CSRMatrix
from ...containers.sparsevec import SparseVector
from ...core.descriptor import DEFAULT, Descriptor
from ...core.monoid import Monoid
from ...core.operators import BinaryOp, UnaryOp
from ...core.semiring import Semiring
from ...types import promote
from ..base import Backend, product_type
from .kernels import (
    dict_to_mat,
    dict_to_vec,
    ewise_intersect_dict,
    ewise_union_dict,
    mat_to_dict,
    spgemm_dict,
    spmv_dict,
    vec_to_dict,
)

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Pure-Python oracle backend."""

    name = "reference"

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    def _product(self, a, u, semiring, flip, mask, desc, direction) -> SparseVector:
        # The oracle takes no hints and builds no Aᵀ: the row picture
        # gathers A's rows, the column picture scatters u[k]·A[k, :].
        out_t = product_type(semiring, a, u, flip)
        u_d = vec_to_dict(u)
        if not flip:
            t = spmv_dict(mat_to_dict(a), u_d, semiring, out_t)
            return dict_to_vec(t, a.nrows, out_t)
        acc: dict = {}
        for k, uv in u_d.items():
            cidx, cvals = a.row(k)
            for j, av in zip(cidx, cvals):
                prod = semiring.multiply(uv, av)
                j = int(j)
                if j in acc:
                    acc[j] = semiring.combine(acc[j], prod)
                else:
                    acc[j] = prod
        return dict_to_vec(acc, a.ncols, out_t)

    def mxm(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        semiring: Semiring,
        mask: Optional[CSRMatrix] = None,
        desc: Descriptor = DEFAULT,
    ) -> CSRMatrix:
        out_t = semiring.result_type(a.type, b.type)
        t = spgemm_dict(mat_to_dict(a), mat_to_dict(b), semiring, out_t)
        return dict_to_mat(t, a.nrows, b.ncols, out_t)

    # ------------------------------------------------------------------
    # Elementwise
    # ------------------------------------------------------------------

    def ewise_add_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        out_t = op.result_type(promote(u.type, v.type))
        return dict_to_vec(
            ewise_union_dict(vec_to_dict(u), vec_to_dict(v), op, out_t), u.size, out_t
        )

    def ewise_mult_vector(self, u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
        out_t = op.result_type(promote(u.type, v.type))
        return dict_to_vec(
            ewise_intersect_dict(vec_to_dict(u), vec_to_dict(v), op, out_t), u.size, out_t
        )

    def ewise_add_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        out_t = op.result_type(promote(a.type, b.type))
        ad, bd = mat_to_dict(a), mat_to_dict(b)
        out: dict = {}
        for i in ad.keys() | bd.keys():
            out[i] = ewise_union_dict(ad.get(i, {}), bd.get(i, {}), op, out_t)
        return dict_to_mat(out, a.nrows, a.ncols, out_t)

    def ewise_mult_matrix(self, a: CSRMatrix, b: CSRMatrix, op: BinaryOp) -> CSRMatrix:
        out_t = op.result_type(promote(a.type, b.type))
        ad, bd = mat_to_dict(a), mat_to_dict(b)
        out: dict = {}
        for i in ad.keys() & bd.keys():
            row = ewise_intersect_dict(ad[i], bd[i], op, out_t)
            if row:
                out[i] = row
        return dict_to_mat(out, a.nrows, a.ncols, out_t)

    # ------------------------------------------------------------------
    # Apply / reduce
    # ------------------------------------------------------------------

    def apply_vector(self, u: SparseVector, op: UnaryOp) -> SparseVector:
        out_t = op.result_type(u.type)
        return dict_to_vec(
            {i: op(v) for i, v in vec_to_dict(u).items()}, u.size, out_t
        )

    def apply_matrix(self, a: CSRMatrix, op: UnaryOp) -> CSRMatrix:
        out_t = op.result_type(a.type)
        d = {
            i: {j: op(v) for j, v in row.items()}
            for i, row in mat_to_dict(a).items()
        }
        return dict_to_mat(d, a.nrows, a.ncols, out_t)

    def reduce_vector_scalar(self, u: SparseVector, monoid: Monoid) -> Any:
        t = monoid.result_type(u.type)
        acc = monoid.identity(t)
        for v in u.values:
            acc = monoid(acc, v)
        return t.cast(acc)

    def reduce_matrix_vector(self, a: CSRMatrix, monoid: Monoid) -> SparseVector:
        out_t = monoid.result_type(a.type)
        out: dict = {}
        for i in range(a.nrows):
            _, vals = a.row(i)
            if vals.size == 0:
                continue
            acc = vals[0]
            for v in vals[1:]:
                acc = monoid(acc, v)
            out[i] = acc
        return dict_to_vec(out, a.nrows, out_t)

    def reduce_matrix_scalar(self, a: CSRMatrix, monoid: Monoid) -> Any:
        t = monoid.result_type(a.type)
        acc = monoid.identity(t)
        for v in a.values:
            acc = monoid(acc, v)
        return t.cast(acc)
