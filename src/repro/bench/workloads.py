"""The standard workload suite used by every benchmark table.

A small, fixed set of named graphs (R-MAT at several scales, Erdős–Rényi,
a 2-D grid as the road-network proxy) with fixed seeds so table rows are
reproducible run to run.  Graphs are cached per process — generation cost
must not pollute kernel timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..core.matrix import Matrix
from ..core.vector import Vector
from ..generators import erdos_renyi_gnp, grid_2d, rmat
from ..types import FP64

__all__ = ["Workload", "WORKLOADS", "get_workload", "workload_names", "random_frontier"]


@dataclass(frozen=True)
class Workload:
    """A named benchmark graph."""

    name: str
    description: str
    factory: Callable[[], Matrix]


def _rmat_factory(scale: int, ef: int, weighted: bool = True):
    return lambda: rmat(scale=scale, edge_factor=ef, seed=42, weighted=weighted)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("rmat_s8", "R-MAT scale 8, ef 8 (256 vertices)", _rmat_factory(8, 8)),
        Workload("rmat_s10", "R-MAT scale 10, ef 8 (1k vertices)", _rmat_factory(10, 8)),
        Workload("rmat_s12", "R-MAT scale 12, ef 8 (4k vertices)", _rmat_factory(12, 8)),
        Workload("rmat_s13", "R-MAT scale 13, ef 8 (8k vertices)", _rmat_factory(13, 8)),
        Workload(
            "er_4k",
            "Erdős–Rényi n=4096, avg degree ~8",
            lambda: erdos_renyi_gnp(4096, 8 / 4096, seed=42, weighted=True),
        ),
        Workload(
            "grid_64",
            "64x64 grid (road-network proxy)",
            lambda: grid_2d(64, 64, weighted=True, seed=42),
        ),
    ]
}

_CACHE: Dict[str, Matrix] = {}


def get_workload(name: str) -> Matrix:
    """The named graph, cached (do not mutate the returned Matrix)."""
    if name not in _CACHE:
        _CACHE[name] = WORKLOADS[name].factory()
    return _CACHE[name]


def workload_names() -> List[str]:
    return list(WORKLOADS)


def random_frontier(n: int, nnz: int, seed: int = 7) -> Vector:
    """A sparse FP64 vector with ``nnz`` random present positions."""
    import numpy as np

    rng = np.random.default_rng(seed)
    nnz = min(nnz, n)
    idx = np.sort(rng.choice(n, size=nnz, replace=False)).astype(np.int64)
    return Vector.from_lists(idx, rng.random(nnz) + 0.5, n, FP64)
