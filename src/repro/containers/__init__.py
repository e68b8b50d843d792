"""Sparse storage containers shared by all backends.

- :class:`COO` — build/staging triplets;
- :class:`CSRMatrix` — canonical row-compressed compute format;
- :class:`CSCMatrix` — column view for pull-direction kernels;
- :class:`SparseVector` — sparse frontiers and results, stored as values
  alone when full;
- :mod:`~repro.containers.bitmap` — dense-keyspace membership
  (``locate``/``union``/``union_merge``);
- :mod:`~repro.containers.convert` — conversions between them.
"""

from .coo import COO, dedupe_triplets
from .csc import CSCMatrix
from .csr import CSRMatrix
from .sparsevec import SparseVector
from . import convert

__all__ = [
    "COO",
    "CSCMatrix",
    "CSRMatrix",
    "SparseVector",
    "convert",
    "dedupe_triplets",
]
