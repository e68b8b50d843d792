"""Multi-device partitioning, communication, and scheduling.

This package is the substrate of the ``multi_sim`` backend: block-row
sharded containers (:mod:`.partition`), a P2P link/topology model
(:mod:`.topology`), collective and sparse-exchange communication
primitives with byte accounting (:mod:`.comm`), and a per-device
scheduler owning one simulated device per shard, whose clocks are the
cluster's time (:mod:`.cluster`).

None of it is GraphBLAS-specific: the partitioned containers wrap the
ordinary :class:`~repro.containers.csr.CSRMatrix` /
:class:`~repro.containers.sparsevec.SparseVector`, and the cluster issues
shard-local work through the existing cuda_sim kernel layer.  See
``docs/distributed.md`` for the accounting semantics.
"""

from .comm import CommModel, CommStats
from .cluster import SimCluster
from .partition import (
    PartitionedCSR,
    PartitionedVector,
    degree_balanced_splitters,
    equal_rows_splitters,
)
from .topology import DGX_NVLINK, PCIE_ONLY, LinkSpec, Topology

__all__ = [
    "CommModel",
    "CommStats",
    "SimCluster",
    "PartitionedCSR",
    "PartitionedVector",
    "degree_balanced_splitters",
    "equal_rows_splitters",
    "LinkSpec",
    "Topology",
    "DGX_NVLINK",
    "PCIE_ONLY",
]
