"""Skew-aware lane scheduling for the simulated kernels.

GraphBLAST and Gunrock both select a *load-balancing policy* per launch
from the degree distribution: short rows run thread-per-row (CSR-scalar),
medium rows run warp-per-row (CSR-vector), and long/irregular rows run a
merge-path kernel that splits ``nnz + nrows`` work units into equal-sized
partitions regardless of row boundaries.  This module is the simulated
analogue: it bins rows into those three lanes by the per-row work a
kernel's work estimator in ``cuda_sim/kernels.py`` prices (row lengths, or
per-row FLOPs for SpGEMM; a full-matrix pull passes the cached
``row_degrees`` / ``row_nnz_max``, no new pass over the matrix), and
produces the per-lane divergence/thread schedule that estimator charges
through the existing cost model.  The estimator is the one place a
launch's lane is decided.

Lane selection is a pure *schedule* decision: the semantic functions are
untouched, so results are bit-identical to the single-lane kernels on
every backend.  The policy's ``lanes`` field (:mod:`repro.policy`) is the
A/B switch — ``policy(lanes=...)`` pins a lane or turns selection off — so
benchmarks can measure the lane layer against its own baseline within one
process.

Lane vocabulary:

- ``"scalar"`` — thread-per-row; a warp serialises to its longest row
  (:func:`~repro.gpu.simt.divergence_thread_per_row`).
- ``"vector"`` — warp-per-row; lanes stride the row, short rows waste
  lanes (:func:`~repro.gpu.simt.divergence_warp_per_row`).
- ``"merge"`` — merge-path; equal-work partitions over ``nnz + nrows``
  with per-partition binary searches for the start coordinates.
- ``"binned"`` — the auto policy's mixed schedule: each bin runs its own
  lane, total busy time is the work-weighted combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import InvalidValueError
from ..policy import current
from .simt import divergence_thread_per_row, divergence_warp_per_row

__all__ = [
    "LANES",
    "LanePlan",
    "LaneSchedule",
    "choose_lanes",
    "merge_partitions",
    "plan_rows",
    "schedule",
]

_IDX = 8  # bytes per index (int64), matching the kernel estimators

#: The three concrete lanes a row bin can run in.
LANES: Tuple[str, ...] = ("scalar", "vector", "merge")

# Rows with <= SCALAR_CUTOFF entries: thread-per-row is already balanced.
# Rows in (SCALAR_CUTOFF, VECTOR_CUTOFF]: warp-per-row with a row-sized
# vector width.  Longer rows: merge-path.
SCALAR_CUTOFF = 4
VECTOR_CUTOFF = 256
#: Work units (nnz + nrows) per merge-path partition.
MERGE_TILE = 256


# ---------------------------------------------------------------------------
# Row binning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LanePlan:
    """Row positions per lane — a partition of ``arange(len(lens))``."""

    scalar: np.ndarray
    vector: np.ndarray
    merge: np.ndarray

    @property
    def label(self) -> str:
        """``"scalar"``/``"vector"``/``"merge"`` when one bin holds every
        row, else ``"binned"`` (empty inputs degrade to ``"scalar"``)."""
        nonempty = [
            name
            for name, rows in (
                ("scalar", self.scalar),
                ("vector", self.vector),
                ("merge", self.merge),
            )
            if rows.size
        ]
        if not nonempty:
            return "scalar"
        if len(nonempty) == 1:
            return nonempty[0]
        return "binned"


def plan_rows(lens: np.ndarray) -> LanePlan:
    """Bin rows by length into the three lanes (an exact partition)."""
    lens = np.asarray(lens)
    short = lens <= SCALAR_CUTOFF
    long_ = lens > VECTOR_CUTOFF
    return LanePlan(
        scalar=np.flatnonzero(short),
        vector=np.flatnonzero(~short & ~long_),
        merge=np.flatnonzero(long_),
    )


def merge_partitions(units: int, tile: int = MERGE_TILE) -> np.ndarray:
    """Per-partition sizes for ``units`` merge-path work items.

    Partitions are ``<= tile`` units each and differ by at most one unit —
    the equal-work guarantee that makes the merge-path lane immune to row
    skew (a hub row simply spans several partitions).
    """
    total = int(units)
    if total <= 0:
        return np.zeros(0, dtype=np.int64)
    nparts = max(1, -(-total // int(tile)))
    base, rem = divmod(total, nparts)
    out = np.full(nparts, base, dtype=np.int64)
    out[:rem] += 1
    return out


# ---------------------------------------------------------------------------
# Lane choice
# ---------------------------------------------------------------------------


def choose_lanes(
    lens: np.ndarray,
    nnz_max: Optional[int] = None,
    native: str = "scalar",
) -> str:
    """The per-launch lane decision (the analogue of ``choose_direction``).

    ``lens`` is the per-row work distribution (degrees, or FLOPs for
    SpGEMM); ``nnz_max`` is the cached row maximum when available, used as
    a short-circuit so uniform short-row graphs skip binning entirely;
    ``native`` is the kernel's built-in lane, returned when the policy is
    off.  Returns a lane name or ``"binned"``.
    """
    mode = current().lanes
    if mode == "off":
        return native
    if mode in LANES:
        return mode
    lens = np.asarray(lens)
    if lens.size == 0:
        return native
    if nnz_max is not None and nnz_max <= SCALAR_CUTOFF:
        return "scalar"
    return plan_rows(lens).label


# ---------------------------------------------------------------------------
# Per-lane schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaneSchedule:
    """What a lane decision costs: the divergence factor the cost model
    multiplies busy time by, the launched thread count, and any extra
    bookkeeping reads (as ``combine_coalescing`` parts)."""

    lane: str
    divergence: float
    threads: int
    extra_read_parts: Tuple[Tuple[float, str], ...] = ()


def _pow2_at_least(x: float, lo: int, hi: int) -> int:
    """Smallest power of two >= x, clamped to [lo, hi]."""
    v = lo
    while v < x and v < hi:
        v *= 2
    return v


def _merge_schedule(lens: np.ndarray, threads_per_row: int) -> LaneSchedule:
    """Merge-path lane: equal partitions over ``nnz + nrows`` work units.

    Divergence is the path-length inflation (row-boundary bookkeeping
    items interleaved with the nonzeros) times the partition imbalance —
    which :func:`merge_partitions` bounds at one unit, so balanced
    partitions are rewarded with a factor approaching the pure path
    overhead.  Each partition additionally pays two binary searches over
    ``indptr`` to locate its start coordinate (gather-class reads).
    """
    useful = float(lens.sum())
    units = int(useful) + int(lens.size)
    parts = merge_partitions(units)
    if parts.size == 0:
        return LaneSchedule("merge", 1.0, threads_per_row)
    imbalance = float(parts.max()) / (float(parts.sum()) / parts.size)
    path_inflation = units / max(useful, 1.0)
    probe_depth = float(np.ceil(np.log2(lens.size + 2)))
    extra = (float(parts.size) * 2.0 * _IDX * probe_depth, "gather")
    return LaneSchedule(
        "merge",
        max(1.0, path_inflation * imbalance),
        int(parts.size) * threads_per_row,
        (extra,),
    )


def schedule(
    lens: np.ndarray, lane: str, threads_per_row: int = 32, warp_size: int = 32
) -> LaneSchedule:
    """Divergence/thread schedule for running ``lens`` rows in ``lane``.

    Forced single lanes reproduce the pre-lanes estimators exactly
    (``scalar`` == thread-per-row, ``vector`` == warp-per-row at the full
    warp width); ``binned`` runs each bin in its own lane and combines the
    per-bin divergences weighted by useful work, which preserves the sum
    of per-lane busy times under the cost model's single multiplicative
    divergence term.
    """
    lens = np.asarray(lens, dtype=np.float64)
    if lane == "scalar":
        return LaneSchedule(
            "scalar",
            divergence_thread_per_row(lens, warp_size),
            max(int(lens.size), 1) * threads_per_row,
        )
    if lane == "vector":
        return LaneSchedule(
            "vector",
            divergence_warp_per_row(lens, warp_size),
            max(int(lens.size), 1) * threads_per_row,
        )
    if lane == "merge":
        return _merge_schedule(lens, threads_per_row)
    if lane == "binned":
        return _binned_schedule(lens, threads_per_row, warp_size)
    raise InvalidValueError(f"unknown lane {lane!r}; known: {LANES + ('binned',)}")


def _binned_schedule(
    lens: np.ndarray, threads_per_row: int, warp_size: int
) -> LaneSchedule:
    plan = plan_rows(lens)
    total_useful = float(lens.sum())
    weighted = 0.0
    threads = 0
    extras: List[Tuple[float, str]] = []
    for name, idx in (("scalar", plan.scalar), ("vector", plan.vector), ("merge", plan.merge)):
        if idx.size == 0:
            continue
        sub = lens[idx]
        if name == "scalar":
            d = divergence_thread_per_row(sub, warp_size)
            threads += int(idx.size) * threads_per_row
        elif name == "vector":
            # CSR-vector with an adaptive sub-warp vector width (the CUSP
            # trick): size the cooperating lane group to the bin's mean
            # row so medium rows stop paying full-warp stride waste.
            vw = _pow2_at_least(float(sub.mean()), 2, warp_size)
            d = divergence_warp_per_row(sub, vw)
            threads += int(idx.size) * threads_per_row
        else:
            ms = _merge_schedule(sub, threads_per_row)
            d = ms.divergence
            threads += ms.threads
            extras.extend(ms.extra_read_parts)
        weighted += float(sub.sum()) * d
    # One row→lane indirection read per row (the binning bookkeeping).
    extras.append((float(lens.size) * _IDX, "sequential"))
    divergence = weighted / total_useful if total_useful > 0 else 1.0
    return LaneSchedule(
        "binned", max(1.0, divergence), max(threads, 1), tuple(extras)
    )
