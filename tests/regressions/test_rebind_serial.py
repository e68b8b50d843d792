# Rebind stamps that depended on memory addresses (hand-written).
#
# ``ResidentSet.mark`` stamps a container as bound to a device so a later
# re-bind (re-upload after eviction or a host write) is counted, and loop
# capture re-records instead of replaying stale bindings.  The stamp used to
# name the device by ``id(dev)``.  A graph that outlives its device then read
# as rebound on a later device allocated at a recycled address, so identical
# sessions counted a rebind (and re-captured, charging an extra launch) in
# some runs and not others.  The stamp now names the device by a serial that
# no later device reuses.

from __future__ import annotations

import repro as gb
from repro.backends.dispatch import get_backend, use_backend
from repro.gpu.device import Device, get_device, reset_device


def test_graph_outliving_its_device_is_never_rebound():
    g = gb.generators.rmat(9, 8, seed=3, directed=True)
    be = get_backend("cuda_sim")
    rebinds, launches = [], []
    with use_backend(be):
        for _ in range(40):
            be.evict_all()
            reset_device()
            gb.algorithms.bfs_levels(g, 0)
            gb.algorithms.bfs_levels(g, 0)
            dev = get_device()
            launches.append(dev.profiler.launch_count)
            rebinds.append(dev.rebinds)
    assert rebinds == [0] * 40
    assert len(set(launches)) == 1


def test_device_serials_are_unique():
    devices = [Device() for _ in range(8)]
    assert len({d.serial for d in devices}) == 8
