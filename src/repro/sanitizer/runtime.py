"""gbsan runtime: the dynamic sanitizer for the simulated GPU stack.

A single module-level :data:`ACTIVE` instance (``None`` when disabled) is
probed by the instrumentation points in :mod:`repro.gpu` and
:mod:`repro.backends.multi_sim`.  Disabled, every hook site costs one
attribute load and an ``is None`` test — the sanitizer is zero-overhead by
default and enabled explicitly (``repro.sanitizer.enable()`` or the
``GBSAN`` environment variable).

Each device is one host-synchronous timeline: its launches and transfers
run in program order, so gbsan keeps no happens-before state.  Data that
crosses devices (which meet only at
:class:`~repro.distributed.cluster.SimCluster` barriers and collectives) is
checked by residency instead: a device reads only what was uploaded to it
or marked resident on it.

Checkers (all driven by the per-launch :class:`~repro.sanitizer.access.Access`
sets):

**Residency** — a shadow copy of each device's
:class:`~repro.gpu.residency.ResidentSet`.  A kernel read of a container
with no shadow entry is an ``unresident-read``; one whose host version is
newer than the device stamp is a ``stale-read`` (an H2D that should have
happened was elided); an H2D upload of a container the device itself wrote
but never marked clean (``note_result`` forgotten) is a
``missing-note-result``; a read through a freed device buffer is a
``use-after-free``.

**Pool lifetime** — shadow free-lists of the size-class pool with per-block
identities.  Reissuing a pooled block while a live logical array still
references it is a ``pool-alias``; buffers alive at ``Device.reset()`` (or
an explicit :meth:`Sanitizer.check_leaks`) that no resident set references
are ``leak`` findings.

**Loop replay** — the capture flush of a lazy loop signature
(:mod:`repro.lazy.capture`) binds the (container, device-buffer) pairs its
launches read; a replayed flush whose reads resolve to a *different* device
buffer is a ``stale-replay`` — a real CUDA graph would still dereference
the captured pointer.  Rebinds the device counts re-instantiate the loop
(see ``LoopAgg``), so a finding means a residency path moved a buffer
without counting it.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..exceptions import SanitizerError
from .access import Access, is_tracked, label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..gpu.device import Device

__all__ = ["Finding", "Sanitizer", "ACTIVE", "activate", "deactivate"]

#: Tombstoned resident-set entries kept per device before pruning.
_TOMBSTONE_CAP = 4096

#: Process-global block identities.  Buffers outlive sanitizer instances
#: (DeviceBuffer.block persists across enable/disable scopes and across
#: reset()), so per-instance counters would recycle ids and misattribute
#: pool blocks to the wrong buffer.
_BLOCK_IDS = itertools.count(1)


@dataclass(frozen=True)
class Finding:
    """One detected hazard."""

    kind: str  # unresident-read | stale-read | missing-note-result |
    #            use-after-free | pool-alias | leak | stale-replay
    message: str
    site: str  # kernel / operation name where detected
    device: str  # device description
    buffer: str = ""  # label() of the buffer involved, if any

    def __str__(self) -> str:
        buf = f" [{self.buffer}]" if self.buffer else ""
        return f"gbsan[{self.kind}] at {self.site} on {self.device}:{buf} {self.message}"


@dataclass
class _ResEntry:
    """Shadow of one ResidentSet entry (or tombstone after eviction)."""

    container: Any
    version: int
    buffer: Optional[Any] = None  # DeviceBuffer; None for derived entries
    freed: bool = False
    derived: bool = False  # shard/slice of a tracked parent (multi_sim)
    device_wrote: str = ""  # site of a declared device write not yet marked clean


class _AllocState:
    """Shadow of one DeviceAllocator's pool, with per-block identity."""

    __slots__ = ("pool", "live", "retired")

    def __init__(self) -> None:
        self.pool: Dict[int, List[int]] = {}  # size class -> block-id LIFO
        # block id -> (weakref to owning buffer, nbytes)
        self.live: Dict[int, Tuple["weakref.ref[Any]", int]] = {}
        # pooled block id -> weakref of the buffer that last owned it
        self.retired: Dict[int, "weakref.ref[Any]"] = {}


class Sanitizer:
    """Collects hazards from the instrumented simulated-GPU stack."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, ...]] = set()
        self._anchors: Dict[int, Any] = {}  # pins the objects whose ids key state
        self._mirror: Dict[int, Dict[int, _ResEntry]] = {}  # id(device) -> shadow
        self._alloc: Dict[int, _AllocState] = {}  # id(allocator) -> shadow
        # id(loop aggregate) -> (its capture's rebind stamp,
        #                        {id(container): (container, buffer at capture)})
        self._bindings: Dict[
            int, Tuple[int, Dict[int, Tuple[Any, Optional[Any]]]]
        ] = {}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def _emit(
        self, kind: str, message: str, site: str, device: str, buffer: str = ""
    ) -> None:
        key = (kind, site, buffer.split("(")[0], message.split(";")[0])
        if key in self._seen:
            return
        self._seen.add(key)
        finding = Finding(kind, message, site, device, buffer)
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(finding)

    def drain(self) -> List[Finding]:
        """Return accumulated findings and clear the list (keeps tracking state)."""
        out, self.findings = self.findings, []
        self._seen.clear()
        return out

    def reset(self) -> None:
        """Forget all tracking state and findings (e.g. between fuzz programs)."""
        self.__init__(strict=self.strict)  # type: ignore[misc]

    def report(self) -> str:
        """Human-readable multi-line report of current findings."""
        if not self.findings:
            return "gbsan: no findings"
        lines = [f"gbsan: {len(self.findings)} finding(s)"]
        lines.extend(f"  {i + 1}. {f}" for i, f in enumerate(self.findings))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # residency checks on one launch
    # ------------------------------------------------------------------

    def _shadow(self, device: "Device") -> Dict[int, _ResEntry]:
        """The device's ResidentSet shadow; pins the device while it is kept.

        The shadow is keyed by ``id(device)``: a dropped device whose id
        passed to a new one would hand the new device its residency.
        """
        key = id(device)
        shadow = self._mirror.get(key)
        if shadow is None:
            shadow = self._mirror[key] = {}
            self._anchors[key] = device
        return shadow

    def on_launch(self, kernel_name: str, access: Access, device: "Device") -> None:
        """Check one kernel launch's declared accesses (called pre-execution)."""
        loop = device.active_graph
        shadow = self._shadow(device)
        for obj in access.reads:
            if not is_tracked(obj):
                continue
            self._check_residency(obj, kernel_name, device, shadow)
            if loop is not None:
                entry = shadow.get(id(obj))
                buf = entry.buffer if entry is not None else None
                self._check_binding(loop, obj, buf)
        for obj in access.writes:
            if not is_tracked(obj):
                continue
            # The device now holds the freshest copy; it stays "dirty" until
            # the backend marks it clean (note_result -> ResidentSet.mark).
            entry = shadow.get(id(obj))
            if entry is not None and not entry.freed:
                entry.device_wrote = kernel_name

    def _check_residency(
        self, obj: Any, site: str, device: "Device", shadow: Dict[int, _ResEntry]
    ) -> None:
        entry = shadow.get(id(obj))
        version = getattr(obj, "version", 0)
        if entry is None:
            self._emit(
                "unresident-read",
                "kernel reads a container never uploaded to (or marked resident "
                "on) this device — missing ensure/mark before launch",
                site,
                repr(device),
                label(obj),
            )
            return
        if entry.freed or (entry.buffer is not None and not entry.buffer.alive):
            self._emit(
                "use-after-free",
                "kernel reads a container whose device buffer was freed "
                "(evicted or returned to the pool)",
                site,
                repr(device),
                label(obj),
            )
            return
        if entry.version != version and not entry.device_wrote:
            self._emit(
                "stale-read",
                f"device copy is v{entry.version} but the host copy is "
                f"v{version}; the H2D transfer that should refresh it was "
                "elided (dirty bit ignored)",
                site,
                repr(device),
                label(obj),
            )

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------

    def on_transfer(self, container: Any, kind: str, device: "Device") -> None:
        """Residency bookkeeping for one tracked-container transfer."""
        if kind != "h2d" or not is_tracked(container):
            return
        entry = self._shadow(device).get(id(container))
        # The eviction that precedes a stale re-upload tombstones the entry,
        # so the dirty marker is honoured even on freed entries.
        if entry is not None and entry.device_wrote:
            self._emit(
                "missing-note-result",
                f"re-uploading a container the device itself produced at "
                f"{entry.device_wrote}; the result was never marked clean "
                "(note_result/dirty-bit gap), so the host copy looks newer "
                "and the upload is redundant",
                f"memcpy_{kind}",
                repr(device),
                label(container),
            )

    # ------------------------------------------------------------------
    # ResidentSet shadow
    # ------------------------------------------------------------------

    def on_resident_mark(
        self, device: "Device", container: Any, buffer: Any
    ) -> None:
        """Entry created/refreshed in a ResidentSet (container clean on-device)."""
        shadow = self._shadow(device)
        entry = shadow.get(id(container))
        version = getattr(container, "version", 0)
        if entry is not None and not entry.freed:
            entry.version = version
            if buffer is not None:
                entry.buffer = buffer
            entry.device_wrote = ""
            return
        shadow[id(container)] = _ResEntry(container, version, buffer)

    def on_resident_elide(
        self, device: "Device", container: Any, buffer: Any, version: int
    ) -> None:
        """A ResidentSet elided an upload, holding ``container`` at ``version``.

        Learns only an entry the shadow never saw (a sanitizer enabled
        mid-session), stamped with the set's version, not the container's:
        the shadow must not relearn residency from the set it checks, or a
        wrong version test in the set could never read as stale.
        """
        shadow = self._shadow(device)
        if id(container) not in shadow:
            shadow[id(container)] = _ResEntry(container, version, buffer)

    def on_resident_evict(self, device: "Device", container: Any) -> None:
        """Entry dropped from a ResidentSet (device buffer freed)."""
        shadow = self._shadow(device)
        entry = shadow.get(id(container))
        if entry is not None:
            entry.freed = True
        if len(shadow) > _TOMBSTONE_CAP:
            for key in [k for k, e in shadow.items() if e.freed][: len(shadow) // 2]:
                del shadow[key]

    def note_derived(self, device: "Device", child: Any, parent: Any) -> None:
        """Register a device-resident derived view (e.g. a multi_sim shard).

        The child shares storage with ``parent`` (already resident); it gets
        its own shadow entry so kernels reading the shard pass the residency
        check without any allocator traffic.
        """
        if not is_tracked(child):
            return
        self._shadow(device)[id(child)] = _ResEntry(
            child, getattr(child, "version", 0), None, derived=True
        )

    # ------------------------------------------------------------------
    # allocator shadow (pool lifetime)
    # ------------------------------------------------------------------

    def _alloc_state(self, allocator: Any) -> _AllocState:
        st = self._alloc.get(id(allocator))
        if st is None:
            st = _AllocState()
            self._alloc[id(allocator)] = st
            self._anchors[id(allocator)] = allocator
        return st

    def on_reserve(self, allocator: Any, size_class: int, pooled: bool) -> int:
        """Assign a block identity to one allocation; alias-check pool reuse."""
        st = self._alloc_state(allocator)
        free_list = st.pool.get(size_class)
        if pooled and free_list:
            block = free_list.pop()
            wref = st.retired.pop(block, None)
            old = wref() if wref is not None else None
            if old is not None and self._referenced_by_live_entry(old):
                self._emit(
                    "pool-alias",
                    f"pool block #{block} (class {size_class}) reissued while a "
                    "live logical array still maps onto it; two containers now "
                    "alias one device allocation",
                    "allocator.reserve",
                    repr(allocator),
                    repr(old),
                )
            return block
        return next(_BLOCK_IDS)

    def _referenced_by_live_entry(self, buffer: Any) -> bool:
        for shadow in self._mirror.values():
            for entry in shadow.values():
                if not entry.freed and entry.buffer is buffer:
                    return True
        return False

    def on_buffer_created(self, allocator: Any, buffer: Any) -> None:
        block = getattr(buffer, "block", None)
        if block is None:
            return
        st = self._alloc_state(allocator)
        st.live[block] = (weakref.ref(buffer), buffer.nbytes)

    def on_release(
        self, allocator: Any, size_class: int, block: Optional[int], pooled: bool
    ) -> None:
        if block is None:
            return
        st = self._alloc_state(allocator)
        item = st.live.pop(block, None)
        if pooled:
            st.pool.setdefault(size_class, []).append(block)
            if item is not None:
                st.retired[block] = item[0]

    def check_leaks(self, allocator: Any, site: str = "check_leaks") -> int:
        """Report device buffers still alive but unreachable from any resident set."""
        st = self._alloc.get(id(allocator))
        if st is None:
            return 0
        referenced = {
            id(entry.buffer)
            for shadow in self._mirror.values()
            for entry in shadow.values()
            if not entry.freed and entry.buffer is not None
        }
        leaks = 0
        for block, (wref, nbytes) in list(st.live.items()):
            buf = wref()
            if buf is None or not buf.alive:
                st.live.pop(block, None)
                continue
            if id(buf) not in referenced:
                leaks += 1
                self._emit(
                    "leak",
                    f"device buffer ({nbytes}B, block #{block}) is still "
                    "allocated but no resident set references it",
                    site,
                    repr(allocator),
                    repr(buf),
                )
        return leaks

    def on_device_reset(self, device: "Device") -> None:
        """Leak report at sim reset; the allocator's accounting restarts."""
        self.check_leaks(device.allocator, site="device.reset")
        self._alloc.pop(id(device.allocator), None)

    # ------------------------------------------------------------------
    # loop-capture replay
    # ------------------------------------------------------------------

    def _check_binding(self, loop: Any, obj: Any, buf: Optional[Any]) -> None:
        """A capture flush binds its reads; a replayed flush must match them."""
        entry = self._bindings.get(id(loop))
        if entry is None or entry[0] != loop.rebinds:
            # A new capture (the first, or a re-instantiation) binds afresh.
            entry = self._bindings[id(loop)] = (loop.rebinds, {})
            self._anchors[id(loop)] = loop
        bindings = entry[1]
        if not loop.replaying:
            bindings[id(obj)] = (obj, buf)
            return
        cap = bindings.get(id(obj))
        if cap is None or cap[0] is not obj:
            return
        if cap[1] is not None and buf is not None and cap[1] is not buf:
            self._emit(
                "stale-replay",
                "replayed loop reads a container that was re-uploaded to a "
                "new device buffer after capture (host mutated it); a real "
                "CUDA graph would still dereference the captured pointer — "
                "re-instantiate the graph after host writes",
                f"graph[{loop.name}]",
                "<graph replay>",
                label(obj),
            )


#: The process-wide sanitizer; ``None`` == disabled (the zero-overhead state).
ACTIVE: Optional[Sanitizer] = None


def activate(strict: bool = False) -> Sanitizer:
    """Install (or return the existing) process-wide sanitizer."""
    global ACTIVE
    if ACTIVE is None:
        ACTIVE = Sanitizer(strict=strict)
    else:
        ACTIVE.strict = strict or ACTIVE.strict
    return ACTIVE


def deactivate() -> Optional[Sanitizer]:
    """Remove the process-wide sanitizer; returns it (with its findings)."""
    global ACTIVE
    san, ACTIVE = ACTIVE, None
    return san
