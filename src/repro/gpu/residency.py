"""Device-residency tracking for simulated backends.

A backend that models PCIe traffic needs to know which containers are
already on the device: operands are uploaded on first use, cached, and
re-uploaded only when the host copy mutated (version stamp mismatch).
This was born inside the cuda_sim backend; the multi-device backend needs
one resident set *per device*, so the bookkeeping lives here as a class
parameterised by the device it accounts against.

The device is supplied as a zero-argument callable rather than an object so
the single-GPU backend keeps its historical ``reset_device()`` semantics
(the global device can be swapped out underneath it); per-shard devices in
a cluster bind a fixed device instead.

Every state transition notifies the sanitizer (when enabled) so gbsan's
shadow resident set stays exact: marks, evictions, and re-uploads are
the ground truth its residency and lifetime checkers compare kernel
accesses against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

from ..sanitizer import runtime as _gbsan
from .device import Device, get_device
from .kernel import charge_transfer

__all__ = ["ResidentSet", "RESIDENT_CAP"]

#: LRU capacity: containers tracked per device before eviction.
RESIDENT_CAP = 256


class ResidentSet:
    """LRU set of containers resident in one simulated device's memory.

    Entries map ``id(container)`` to ``(container, device buffer, version at
    upload)``; strong refs pin ids (no reuse while cached).  The version
    stamp is the container's mutation counter — a stale stamp means the host
    copy was mutated in place and the device copy is dirty, so the next use
    re-uploads.  Evicting frees the simulated device memory.
    """

    def __init__(
        self,
        device_fn: Optional[Callable[[], Device]] = None,
        cap: int = RESIDENT_CAP,
    ) -> None:
        self._device_fn = device_fn or get_device
        self._cap = cap
        self._entries: "OrderedDict[int, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, container: Any) -> bool:
        return id(container) in self._entries

    def is_clean(self, container: Any) -> bool:
        """True when the device copy exists and matches the host version."""
        entry = self._entries.get(id(container))
        return entry is not None and entry[2] == getattr(container, "version", 0)

    def ensure(self, container: Any) -> None:
        """Charge an H2D upload unless the container is clean on-device."""
        key = id(container)
        entry = self._entries.get(key)
        version = getattr(container, "version", 0)
        dev = self._device_fn()
        san = _gbsan.ACTIVE
        if entry is not None:
            if entry[2] == version:
                self._entries.move_to_end(key)
                dev.allocator.record_h2d_elided(container.nbytes)
                if san is not None:
                    # Self-heal a sanitizer enabled mid-session: the shadow
                    # learns about clean entries it never saw marked.
                    san.on_resident_mark(dev, container, entry[1])
                return
            # Host copy mutated since upload: the device copy is stale.
            # Free the old block (it lands in the pool) and re-upload.
            entry[1].free()
            del self._entries[key]
            dev.rebinds += 1
            if san is not None:
                san.on_resident_evict(dev, container)
        nbytes = container.nbytes
        # Lazy-optimizer payload demotion (see repro.lazy.passes): an
        # iso-valued payload is filled on-device rather than copied, so the
        # upload moves structure only and the skipped bytes count as elided.
        # The hint lives in the container's version-stamped _aux under this
        # device's serial, so it dies with the data it describes.
        skip = getattr(container, "_aux", {}).get(("h2d_skip", dev.serial), 0.0)
        if skip:
            nbytes = max(nbytes - skip, 0.0)
            dev.allocator.record_h2d_elided(skip)
        charge_transfer(nbytes, "h2d", device=dev, container=container)
        self.mark(container)

    def mark(self, container: Any) -> None:
        """Record the container as device-resident (clean) without a copy."""
        key = id(container)
        version = getattr(container, "version", 0)
        entry = self._entries.get(key)
        dev = self._device_fn()
        san = _gbsan.ACTIVE
        # The stamp outlives eviction (not a version bump, which clears
        # _aux), so a container bound here again is counted as a rebind.
        # It names the device by serial: a later device allocated at a
        # recycled address must not read the stamp as its own.
        aux = getattr(container, "_aux", None)
        bound_key = ("bound", dev.serial)
        if entry is not None:
            # Refresh the stamp: device-produced data is clean by definition.
            self._entries[key] = (container, entry[1], version)
            self._entries.move_to_end(key)
            if aux is not None:
                aux[bound_key] = True
            if san is not None:
                san.on_resident_mark(dev, container, entry[1])
            return
        if aux is not None:
            if aux.get(bound_key):
                dev.rebinds += 1
            aux[bound_key] = True
        buf = dev.allocator.reserve(container.nbytes)
        self._entries[key] = (container, buf, version)
        self._entries.move_to_end(key)
        if san is not None:
            san.on_resident_mark(dev, container, buf)
        while len(self._entries) > self._cap:
            _, (old_container, old_buf, _) = self._entries.popitem(last=False)
            old_buf.free()
            if san is not None:
                san.on_resident_evict(dev, old_container)

    def evict_all(self) -> None:
        """Forget residency (e.g. between benchmark repetitions)."""
        san = _gbsan.ACTIVE
        dev = self._device_fn() if san is not None else None
        for container, buf, _ in self._entries.values():
            buf.free()
            if san is not None and dev is not None:
                san.on_resident_evict(dev, container)
        self._entries.clear()
