# Iso upload hints keyed on recycled addresses (hand-written).
#
# The lazy optimizer marks an iso-valued matrix (constant weights, as in an
# unweighted graph) so that its upload skips the value array: the device
# fills the constant instead.  The hint used to live in a per-device table
# keyed by ``(id(container), version)``.  Once the graph was freed, a
# weighted matrix allocated at its address read the dead graph's hint and
# uploaded its structure only, counting its value bytes as elided.  The hint
# now lives in the container's own version-stamped ``_aux``, so it dies with
# the data it describes.

from __future__ import annotations

import gc

import pytest

import repro as gb
from repro.algorithms import bfs_levels
from repro.backends.dispatch import get_backend, use_backend
from repro.containers.csr import CSRMatrix
from repro.generators.rmat import rmat
from repro.gpu.device import get_device, reset_device


def _uploads(g):
    """Bytes of each H2D record one push BFS from vertex 0 charges."""
    prof = get_device().profiler
    seen = len(prof.records)
    with use_backend("cuda_sim"):
        bfs_levels(g, 0, direction="push").nvals
    return [r.bytes for r in prof.records[seen:] if r.kind == "h2d"]


def test_weighted_graph_at_a_freed_iso_graphs_address_uploads_its_values():
    be = get_backend("cuda_sim")
    be.evict_all()
    reset_device()
    w = rmat(8, 8, seed=3, weighted=True).container
    iso = rmat(8, 8, seed=3)
    ic = iso.container
    assert ic.indptr.nbytes + ic.indices.nbytes in _uploads(iso)
    dead = id(ic)
    be.evict_all()  # the resident set pins the ids it holds
    del iso, ic
    gc.collect()
    # New containers over the weighted arrays until CPython hands one the
    # freed graph's address (a sanitizer pins ids, so it may never come).
    keep = []
    for _ in range(20_000):
        c = CSRMatrix(w.nrows, w.ncols, w.indptr, w.indices, w.values, w.type)
        if id(c) == dead:
            break
        keep.append(c)
    else:
        pytest.skip("the freed container's address was not reused")
    del keep
    assert c.version == 0 and w.values.nbytes > 0
    assert c.nbytes in _uploads(gb.Matrix(c))
