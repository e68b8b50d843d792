# multi_sim's partitions (hand-written).
#
# Three faults sat on the code that shards a matrix across devices:
#
# - The partitions lived in ``id()``-keyed dicts on the backend that held a
#   strong reference to every matrix sharded since the last ``configure``,
#   so each round of a batched algorithm left its temporaries alive.  A
#   partition is now memoised in the matrix's own version-stamped ``_aux``
#   and dies with it.
# - The distributed Aᵀ build charged each device's ``transpose_shard`` sort
#   and an ``all_to_all`` of A but never uploaded A: a pull ``vxm`` on a
#   directed graph at P=2 uploaded only ``u``, while cuda_sim uploads A
#   before its ``transpose_countsort``.  The build now makes A's row shards
#   resident first.
# - Row shards are new containers, so they never carried the iso upload
#   hint the lazy pass stamps on an unweighted graph, and at P >= 2 each
#   uploaded the value array a single device fills in place.  A shard now
#   inherits its matrix's hint for its device.

from __future__ import annotations

import gc

import pytest

import repro as gb
from repro import sanitizer
from repro.algorithms import bfs_levels, bfs_levels_multi, ppr_batch
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.distributed.partition import PartitionedCSR
from repro.generators.rmat import rmat
from repro.gpu.device import get_device, reset_device
from repro.policy import policy


def _multi_sim():
    ms = get_backend("multi_sim").configure(nparts=2, splitter="equal_rows")
    ms.reset()
    return ms


def _live_matrices() -> int:
    gc.collect()
    return sum(isinstance(o, CSRMatrix) for o in gc.get_objects())


def test_sharded_temporaries_are_not_pinned():
    if sanitizer.active() is not None:
        pytest.skip("the sanitizer holds every container it tracks")
    g = rmat(8, 8, seed=1)
    ms = _multi_sim()
    counts = []
    for _ in range(4):
        with use_backend(ms):
            ppr_batch(g, [0, 1, 2], iters=5).nvals
            bfs_levels_multi(g, [0, 3, 5]).nvals
        ms.evict_all()
        counts.append(_live_matrices())
    assert counts[-1] == counts[0], counts


def test_pull_vxm_uploads_a_before_sorting_its_shards():
    a = rmat(7, 8, seed=0, directed=True)
    u = gb.Vector.full(1.0, a.nrows, gb.FP64)
    ms = _multi_sim()
    with use_backend(ms), policy(lazy="off"):
        w = gb.Vector.sparse(gb.FP64, a.ncols)
        ops.vxm(w, u, a, PLUS_TIMES, direction="pull")
        w.nvals
    shards = PartitionedCSR(a.container, 2, "equal_rows").shards
    for dev, shard in zip(ms.cluster.devices, shards):
        recs = dev.profiler.records
        first_sort = next(
            i for i, r in enumerate(recs) if r.name == "transpose_shard"
        )
        uploads = [r.bytes for r in recs[:first_sort] if r.kind == "h2d"]
        assert shard.nbytes in uploads, (uploads, shard.nbytes)


def test_iso_shards_upload_structure_only():
    a = rmat(7, 8, seed=0, directed=True)
    reset_device()
    cuda = get_backend("cuda_sim")
    cuda.evict_all()
    with use_backend(cuda):
        bfs_levels(a, 0).nvals
    whole = [r.bytes for r in get_device().profiler.records if r.kind == "h2d"][0]
    ac = a.container
    assert whole == ac.indptr.nbytes + ac.indices.nbytes

    a = rmat(7, 8, seed=0, directed=True)
    ms = _multi_sim()
    with use_backend(ms):
        bfs_levels(a, 0).nvals
    shards = PartitionedCSR(a.container, 2, "equal_rows").shards
    for dev, shard in zip(ms.cluster.devices, shards):
        first = next(r.bytes for r in dev.profiler.records if r.kind == "h2d")
        assert first == shard.indptr.nbytes + shard.indices.nbytes
        assert dev.allocator.stats.h2d_elided_bytes >= shard.values.nbytes
    # The P=1 bytes plus one more indptr entry for the second shard.
    assert sum(s.indptr.nbytes + s.indices.nbytes for s in shards) == whole + 8
