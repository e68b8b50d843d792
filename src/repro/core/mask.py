"""Mask evaluation.

A GraphBLAS mask controls which output positions an operation may write.  The
mask may be *valued* (an entry controls only if present **and** truthy) or
*structural* (presence alone controls), and may be *complemented*.  The write
pipeline never materialises a complemented mask; instead it evaluates mask
membership at the finite set of candidate positions (union of the old output
and the computed result), which is all the semantics require.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..containers.bitmap import locate
from ..containers.csr import CSRMatrix
from ..containers.sparsevec import SparseVector
from ..exceptions import DimensionMismatchError
from .descriptor import Descriptor

__all__ = ["vector_mask_at", "matrix_mask_at", "check_mask_shape"]


def check_mask_shape(
    mask: Optional[Union[SparseVector, CSRMatrix]],
    out_shape,
) -> None:
    """Validate that the mask's shape matches the output's shape."""
    if mask is None:
        return
    if isinstance(mask, SparseVector):
        if (mask.size,) != tuple(np.atleast_1d(out_shape)):
            raise DimensionMismatchError(
                "mask shape", expected=tuple(np.atleast_1d(out_shape)), actual=(mask.size,)
            )
    else:
        if mask.shape != tuple(out_shape):
            raise DimensionMismatchError(
                "mask shape", expected=tuple(out_shape), actual=mask.shape
            )


def _mask_truthy_sorted(indices: np.ndarray, values: np.ndarray, structural: bool):
    """Sorted index array of positions where the mask 'fires' (pre-complement)."""
    if structural:
        return indices
    keep = values.astype(bool)
    return indices[keep]


def vector_mask_at(
    mask: Optional[SparseVector],
    desc: Descriptor,
    positions: np.ndarray,
) -> np.ndarray:
    """Boolean array: does the (effective) mask allow each of ``positions``?

    The probe is elementwise (:func:`~repro.containers.bitmap.locate`
    against the mask's canonical indices), so ``positions`` may arrive in
    any order — mask-fused kernels test expansion-ordered candidates, the
    write pipeline sorted ones.
    """
    if mask is None:
        return np.ones(positions.size, dtype=bool)
    if mask.is_full:
        # Every position is stored: read the mask by position.
        if desc.structural_mask:
            hit = np.ones(positions.size, dtype=bool)
        else:
            hit = mask.values[positions].astype(bool)
    else:
        truthy = _mask_truthy_sorted(mask.indices, mask.values, desc.structural_mask)
        hit = locate(truthy, positions, mask.size)[0]
    return ~hit if desc.complement_mask else hit


def matrix_mask_at(
    mask: Optional[CSRMatrix],
    desc: Descriptor,
    keys: np.ndarray,
) -> np.ndarray:
    """Matrix analogue of :func:`vector_mask_at` over flat row-major keys."""
    if mask is None:
        return np.ones(keys.size, dtype=bool)
    truthy = _mask_truthy_sorted(mask.flat_keys(), mask.values, desc.structural_mask)
    hit = locate(truthy, keys, mask.nrows * mask.ncols)[0]
    return ~hit if desc.complement_mask else hit
