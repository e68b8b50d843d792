"""SIMT execution modeling helpers.

Real CUDA kernels lose throughput to two data-dependent effects that matter
enormously for sparse kernels and that the cost model needs numbers for:

- **warp divergence** — lanes of a warp that follow different trip counts
  serialise.  For a thread-per-row CSR kernel, a warp takes as long as its
  longest row; :func:`divergence_thread_per_row` computes the resulting
  work-inflation factor directly from the row-length distribution.  A
  warp-per-row kernel (CSR-vector, the CUSP strategy GBTL-CUDA uses for
  SpMV) keeps lanes uniform and only pays stride underutilisation for rows
  shorter than a warp; :func:`divergence_warp_per_row` models that.
- **coalescing** — effective bandwidth divides by the number of memory
  transactions a warp's access pattern needs.  :data:`COALESCING` gives the
  standard factors for the access classes sparse kernels exhibit.

These are *estimators*, not cycle-accurate simulation; they are computed
from the actual input arrays at launch time, so the modeled time responds to
the same structural properties (skewed degree distributions, scatter
patterns) that move real GPU timings.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "divergence_thread_per_row",
    "divergence_warp_per_row",
    "COALESCING",
]

# Effective-bandwidth divisors per access class (32 = one transaction per
# lane, fully scattered).
COALESCING: Dict[str, float] = {
    "sequential": 1.0,  # unit-stride streaming
    "segmented": 2.0,  # mostly-contiguous segment starts (CSR row slices)
    "gather": 8.0,  # data-dependent reads (e.g. x[col[i]])
    "scatter": 16.0,  # data-dependent writes
    "atomic": 32.0,  # contended atomic read-modify-write
}


def divergence_thread_per_row(row_lengths: np.ndarray, warp_size: int = 32) -> float:
    """Work-inflation factor for a thread-per-row kernel.

    Each warp serialises to its longest row: effective work is
    ``Σ_warps warp_size · max(rows in warp)`` versus useful work
    ``Σ rows``.  Returns a factor ≥ 1 (1 when all rows in every warp are
    equal).
    """
    lens = np.asarray(row_lengths, dtype=np.float64)
    if lens.size == 0:
        return 1.0
    useful = float(lens.sum())
    if useful <= 0:
        return 1.0
    pad = (-lens.size) % warp_size
    if pad:
        lens = np.concatenate([lens, np.zeros(pad)])
    per_warp_max = lens.reshape(-1, warp_size).max(axis=1)
    effective = float(per_warp_max.sum()) * warp_size
    return max(1.0, effective / useful)


def divergence_warp_per_row(row_lengths: np.ndarray, warp_size: int = 32) -> float:
    """Lane-underutilisation factor for a warp-per-row kernel.

    Lanes stride the row cooperatively, so a row of length L uses
    ``ceil(L / warp_size) · warp_size`` lane-steps.  Short rows waste lanes;
    long rows are perfectly utilised.
    """
    lens = np.asarray(row_lengths, dtype=np.float64)
    if lens.size == 0:
        return 1.0
    useful = float(lens.sum())
    if useful <= 0:
        return 1.0
    effective = float((np.ceil(lens / warp_size) * warp_size).sum())
    return max(1.0, effective / useful)
