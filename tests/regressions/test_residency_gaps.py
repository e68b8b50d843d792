# Residency gaps surfaced by gbsan (hand-written, unlike the shrunk repros).
#
# A note_result/dirty-bit bug in the cuda_sim backend was found by running
# the sanitizer's residency checker over the operation paths: push-mode
# mxv/vxm probed the mask bitmap in-kernel without ever ensuring the mask
# was device-resident — the H2D upload was never charged, so masked push
# products under-counted transfer bytes and gbsan flagged an
# ``unresident-read`` on the mask.
#
# Each test asserts both the accounting fix (counters) and, when the
# sanitizer is importable, that the operation is clean under gbsan.

from __future__ import annotations

import numpy as np

import repro as gb
from repro import sanitizer as sz
from repro.backends.dispatch import get_backend, use_backend
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.gpu.device import get_device


def _graph_and_operands():
    a = gb.Matrix.from_lists(
        [0, 0, 1, 2, 2, 3],
        [1, 2, 3, 0, 3, 1],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        4,
        4,
        gb.FP64,
    )
    u = gb.Vector.from_lists([0, 2], [1.0, 1.0], 4, gb.FP64)
    mask = gb.Vector.from_lists([1, 3], [1.0, 1.0], 4, gb.FP64)
    return a, u, mask


def test_masked_push_mxv_charges_mask_upload():
    """The mask read by the push kernel must be uploaded (and charged)."""
    be = get_backend("cuda_sim")
    with use_backend(be):
        a, u, mask = _graph_and_operands()
        be.evict_all()
        dev = get_device()
        dev.reset()
        with sz.sanitized() as san:
            out = be.mxv(
                a.container,
                u.container,
                PLUS_TIMES,
                mask=mask.container,
                direction="push",
            )
            assert out is not None
            assert san.findings == [], sz.active().report()
        uploads = [r for r in dev.profiler.records if r.kind == "h2d"]
        assert sum(r.bytes for r in uploads) >= (
            a.container.nbytes + u.container.nbytes + mask.container.nbytes
        )


def test_masked_push_full_pipeline_clean_under_gbsan():
    """End-to-end frontend masked mxv is gbsan-clean in both directions."""
    with use_backend("cuda_sim"):
        a, u, mask = _graph_and_operands()
        for direction in ("push", "pull"):
            with sz.sanitized() as san:
                out = gb.Vector.sparse(gb.FP64, 4)
                ops.mxv(out, a, u, PLUS_TIMES, mask=mask, direction=direction)
                assert san.findings == [], san.report()
                ref = np.asarray(out.to_dense(0.0))
                assert ref.shape == (4,)
