# A device reset starts a new binding session (hand-written).
#
# ``simulated_gpu_time`` evicts every resident container and resets the
# device before each measurement.  The reset device kept its serial, so a
# graph bound in the previous measurement still carried that serial's
# "bound" stamp: its first upload in the next measurement counted a rebind.
# That upload happens inside the BFS loop's capture iteration, so the loop
# re-captured and the second iteration charged its fused SpMV on its own —
# 3 launches instead of 2 (fig2's red gate).  ``Device.reset`` now renews
# the serial, so every measurement of the same BFS charges the same.

from __future__ import annotations

import repro as gb
from repro.bench.harness import simulated_gpu_time
from repro.gpu.device import get_device


def test_repeated_measurements_charge_alike():
    g = gb.generators.rmat(8, 8, seed=21)
    runs = []
    for _ in range(2):
        m = simulated_gpu_time(lambda: gb.algorithms.bfs_levels(g, 0))
        runs.append((m.kernel_launches, get_device().rebinds))
    assert runs == [(2, 0), (2, 0)]


def test_reset_renews_serial():
    dev = get_device()
    before = dev.serial
    dev.reset()
    assert dev.serial != before
