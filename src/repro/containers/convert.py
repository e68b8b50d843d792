"""Conversions between sparse container formats.

Frontends and kernels convert between COO (build), CSR (row compute), CSC
(column compute), sparse vectors, and bitmap vectors.  All conversions are
value-preserving and keep the container canonical (sorted, deduplicated).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.operators import BinaryOp
from ..types import GrBType
from .bitmap import BitmapVector
from .coo import COO
from .csc import CSCMatrix
from .csr import CSRMatrix
from .sparsevec import SparseVector

__all__ = [
    "coo_to_csr",
    "csr_to_csc",
    "csc_to_csr",
    "build_matrix",
    "build_vector",
    "sparse_to_bitmap",
    "bitmap_to_sparse",
    "matrix_row_as_vector",
    "vector_as_row_matrix",
    "vector_as_col_matrix",
]


def coo_to_csr(coo: COO, dup: Optional[BinaryOp] = None) -> CSRMatrix:
    """Canonicalise COO (sort + dedupe) and compress to CSR."""
    return CSRMatrix.from_coo(coo.deduped(dup))


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    return CSCMatrix.from_csr(csr)


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    return csc.to_csr()


def build_matrix(
    nrows: int,
    ncols: int,
    rows,
    cols,
    vals,
    typ: Optional[GrBType] = None,
    dup: Optional[BinaryOp] = None,
) -> CSRMatrix:
    """``GrB_Matrix_build`` analogue: triplets -> canonical CSR."""
    return coo_to_csr(COO(nrows, ncols, rows, cols, vals, typ), dup)


def build_vector(
    size: int,
    indices,
    vals,
    typ: Optional[GrBType] = None,
    dup: Optional[BinaryOp] = None,
) -> SparseVector:
    """``GrB_Vector_build`` analogue."""
    return SparseVector.from_lists(size, indices, vals, typ, dup)


def sparse_to_bitmap(sv: SparseVector) -> BitmapVector:
    return BitmapVector.from_sparse(sv)


def bitmap_to_sparse(bv: BitmapVector) -> SparseVector:
    return bv.to_sparse()


def matrix_row_as_vector(csr: CSRMatrix, i: int) -> SparseVector:
    """Extract row ``i`` of a CSR matrix as a sparse vector (copies)."""
    idx, vals = csr.row(i)
    return SparseVector(csr.ncols, idx.copy(), vals.copy(), csr.type)


def vector_as_row_matrix(sv: SparseVector) -> CSRMatrix:
    """View a length-n vector as a 1×n matrix (copies)."""
    indptr = np.array([0, sv.nvals], dtype=np.int64)
    return CSRMatrix(1, sv.size, indptr, sv.indices.copy(), sv.values.copy(), sv.type)


def vector_as_col_matrix(sv: SparseVector) -> CSRMatrix:
    """View a length-n vector as an n×1 matrix (copies)."""
    cols = np.zeros(sv.nvals, dtype=np.int64)
    return CSRMatrix.from_rows(sv.size, 1, sv.indices, cols, sv.values.copy(), sv.type)
