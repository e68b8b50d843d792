"""gbsan under graph mutation: the residency shadow vs streaming updates.

The hazard class streaming introduces: an edge batch (or compaction)
rewrites the host CSR in place and bumps its container version, but a
kernel keeps consuming the *device-resident* copy cached before the
mutation.  The planted bug below skips the H2D refresh between
``install_arrays`` and the next device-side transpose build — exactly the
"kernel consumes cached transpose after an edge batch" gap — and the
sanitizer's residency shadow must flag it as a stale read.  The fixed
path (:meth:`repro.streaming.DynamicGraph.compact`, which launches the
merge on-device and marks the result clean via ``note_result``) must stay
finding-free under the same workload.
"""

import numpy as np
import pytest

import repro.sanitizer as gbsan
from repro.algorithms.bfs import bfs_levels
from repro.backends.dispatch import get_backend
from repro.core.matrix import Matrix
from repro.streaming import DynamicGraph, EdgeBatch, merge_overlay
from repro.testing.executor import backend_session
from repro.types import FP64

pytestmark = pytest.mark.no_multi_sim


def _ring(n: int) -> Matrix:
    rows = np.arange(n, dtype=np.int64)
    cols = (rows + 1) % n
    return Matrix.from_lists(rows, cols, np.ones(n), n, n, FP64)


def _batch() -> EdgeBatch:
    return EdgeBatch.inserts([0, 3, 5], [4, 7, 2], [1.0, 1.0, 1.0])


def test_planted_stale_transpose_read_is_caught():
    """Mutating the host CSR without refreshing the device copy is flagged."""
    with gbsan.sanitized() as san:
        with backend_session("cuda_sim") as be:
            m = _ring(12)
            base = m.container
            bfs_levels(m, 0)  # warm: adjacency now device-resident
            san.drain()  # only findings from the planted window count

            # Buggy streaming path: fold the batch into the host arrays
            # directly (version bumps, aux caches clear) but never refresh
            # or rebuild the device copy.
            base.install_arrays(*merge_overlay(base, _batch().normalized()))

            # The pull kernel's transpose build now consumes the stale
            # device-resident adjacency.
            be._device_transpose(base)

        findings = san.drain()
    kinds = {f.kind for f in findings}
    assert "stale-read" in kinds, (
        f"planted stale transpose read not caught; findings: {findings}"
    )


def test_fixed_compaction_path_is_clean():
    """DynamicGraph.compact's launch/install/note_result ordering is clean."""
    with gbsan.sanitized() as san:
        with backend_session("cuda_sim") as be:
            m = _ring(12)
            g = DynamicGraph(m)
            bfs_levels(g.matrix, 0)
            san.drain()

            g.apply(_batch())
            g.compact()  # device-side merge + note_result
            be._device_transpose(m.container)  # rebuilt against fresh copy
            bfs_levels(g.matrix, 0)

        findings = san.drain()
    assert findings == [], f"fixed compaction path not clean: {findings}"


def test_fixed_path_clean_under_repeated_batches():
    """Interleaved batches/queries/compactions stay finding-free."""
    with gbsan.sanitized() as san:
        with backend_session("cuda_sim"):
            g = DynamicGraph(_ring(16))
            san.drain()
            rng = np.random.default_rng(7)
            for step in range(4):
                n = g.n
                rows = rng.integers(0, n, size=5)
                cols = rng.integers(0, n, size=5)
                g.apply(EdgeBatch.inserts(rows, cols, np.ones(5)))
                bfs_levels(g.matrix, int(step % n))
                if step % 2:
                    g.compact()
        findings = san.drain()
    assert findings == [], f"streaming workload raised findings: {findings}"
