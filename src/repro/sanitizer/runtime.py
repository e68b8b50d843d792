"""gbsan runtime: the dynamic sanitizer for the simulated GPU stack.

A single module-level :data:`ACTIVE` instance (``None`` when disabled) is
probed by the instrumentation points in :mod:`repro.gpu` and
:mod:`repro.distributed.cluster`.  Disabled, every hook site costs one
attribute load and an ``is None`` test — the sanitizer is zero-overhead by
default and enabled explicitly (``repro.sanitizer.enable()`` or the
``GBSAN`` environment variable).

Checkers (all driven by the per-launch :class:`~repro.sanitizer.access.Access`
sets):

**Races** — FastTrack-style vector clocks.  Timelines: the host (issuing
thread), each device's default queue, and each :class:`~repro.gpu.stream.Stream`.
Default-queue operations and transfers are device-synchronising in the
simulator's timing semantics (they start at ``device.clock_us``, which is
the max over all stream timelines), so they join every stream of their
device; stream launches are asynchronous — ordered after their issue point
but unordered with other streams until an event/synchronize/barrier edge.
A write to a buffer that is unordered with the previous write (W/W) or with
outstanding reads (R/W), or a read unordered with the previous write (W/R),
is reported as a race.

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
from .hb import Epoch, Timeline, join, merge_frontier

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

    kind: str  # race | unresident-read | stale-read | missing-note-result |
    #            use-after-free | pool-alias | leak | stale-replay
    message: str
    site: str  # kernel / operation name where detected
    device: str  # device description
    buffer: str = ""  # label() of the buffer involved, if any

    def __str__(self) -> str:
        buf = f" [{self.buffer}]" if self.buffer else ""
        return f"gbsan[{self.kind}] at {self.site} on {self.device}:{buf} {self.message}"


class _BufState:
    """FastTrack per-buffer access history."""

    __slots__ = ("obj", "last_write", "write_site", "reads")

    def __init__(self, obj: Any) -> None:
        self.obj = obj  # strong ref pins id()
        self.last_write: Optional[Epoch] = None
        self.write_site: str = ""
        # tid -> (clock, site) of the latest read on that timeline.
        self.reads: Dict[int, Tuple[int, str]] = {}


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
        self._host = Timeline("host")
        self._timelines: Dict[int, Timeline] = {}  # id(device|stream) -> tl
        self._anchors: Dict[int, Any] = {}  # pins ids of timeline owners
        self._dev_streams: Dict[int, List[int]] = {}  # id(device) -> stream keys
        self._bufs: Dict[int, _BufState] = {}  # id(container) -> history
        self._mirror: Dict[int, Dict[int, _ResEntry]] = {}  # id(device) -> shadow
        self._events: Dict[int, Dict[int, int]] = {}  # id(event) -> vc snapshot
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
    # timelines
    # ------------------------------------------------------------------

    def _device_tl(self, device: "Device") -> Timeline:
        key = id(device)
        tl = self._timelines.get(key)
        if tl is None:
            tl = Timeline(f"dev:{device.props.name}@{key:#x}")
            self._timelines[key] = tl
            self._anchors[key] = device
            self._dev_streams.setdefault(key, [])
        return tl

    def _stream_tl(self, stream: Any) -> Timeline:
        key = id(stream)
        tl = self._timelines.get(key)
        if tl is None:
            tl = Timeline(f"stream@{key:#x}")
            self._timelines[key] = tl
            self._anchors[key] = stream
            dev_tl = self._device_tl(stream.device)
            join(tl, dev_tl.vc)  # a new stream observes prior device work
            self._dev_streams.setdefault(id(stream.device), []).append(key)
        return tl

    def _sync_epoch(self, device: "Device", site: str) -> Tuple[Timeline, Epoch]:
        """Tick a device-synchronising op (default-queue launch, transfer)."""
        tl = self._device_tl(device)
        join(tl, self._host.vc)
        for skey in self._dev_streams.get(id(device), ()):
            stl = self._timelines.get(skey)
            if stl is not None:
                join(tl, stl.vc)
        epoch = tl.tick()
        join(self._host, tl.vc)  # host blocks until the sync op completes
        return tl, epoch

    def _async_epoch(self, stream: Any) -> Tuple[Timeline, Epoch]:
        """Tick an asynchronous stream launch (ordered after its issue point)."""
        tl = self._stream_tl(stream)
        join(tl, self._host.vc)
        return tl, tl.tick()

    # ------------------------------------------------------------------
    # race + residency checks on one launch
    # ------------------------------------------------------------------

    def on_launch(
        self,
        kernel_name: str,
        access: Access,
        device: "Device",
        stream: Any = None,
    ) -> None:
        """Check one kernel launch's declared accesses (called pre-execution)."""
        if stream is None:
            tl, _ = self._sync_epoch(device, kernel_name)
        else:
            tl, _ = self._async_epoch(stream)
        loop = getattr(device, "active_graph", None) if stream is None else None
        shadow = self._mirror.setdefault(id(device), {})
        for obj in access.reads:
            if not is_tracked(obj):
                continue
            self._check_read(obj, tl, kernel_name, device, shadow)
            if loop is not None:
                entry = shadow.get(id(obj))
                buf = entry.buffer if entry is not None else None
                self._check_binding(loop, obj, buf)
        for obj in access.writes:
            if not is_tracked(obj):
                continue
            self._check_write(obj, tl, kernel_name, device, shadow)

    def _buf_state(self, obj: Any) -> _BufState:
        st = self._bufs.get(id(obj))
        if st is None:
            st = _BufState(obj)
            self._bufs[id(obj)] = st
        return st

    def _check_read(
        self,
        obj: Any,
        tl: Timeline,
        site: str,
        device: "Device",
        shadow: Dict[int, _ResEntry],
    ) -> None:
        st = self._buf_state(obj)
        if st.last_write is not None and not tl.ordered_after(st.last_write):
            self._emit(
                "race",
                f"read is unordered with write at {st.write_site} "
                "(no stream/event/barrier edge between them)",
                site,
                repr(device),
                label(obj),
            )
        st.reads[tl.tid] = (tl.clock, site)
        self._check_residency(obj, site, device, shadow)

    def _check_write(
        self,
        obj: Any,
        tl: Timeline,
        site: str,
        device: "Device",
        shadow: Dict[int, _ResEntry],
    ) -> None:
        st = self._buf_state(obj)
        if st.last_write is not None and not tl.ordered_after(st.last_write):
            self._emit(
                "race",
                f"write is unordered with write at {st.write_site} "
                "(no stream/event/barrier edge between them)",
                site,
                repr(device),
                label(obj),
            )
        for tid, (clock, rsite) in st.reads.items():
            if tid != tl.tid and not tl.ordered_after((tid, clock)):
                self._emit(
                    "race",
                    f"write is unordered with read at {rsite} "
                    "(no stream/event/barrier edge between them)",
                    site,
                    repr(device),
                    label(obj),
                )
                break
        st.last_write = (tl.tid, tl.clock)
        st.write_site = site
        st.reads.clear()
        # The device now holds the freshest copy; it stays "dirty" until the
        # backend marks it clean (note_result -> ResidentSet.mark).
        entry = shadow.get(id(obj))
        if entry is not None and not entry.freed:
            entry.device_wrote = site

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
        """HB + residency bookkeeping for one tracked-container transfer."""
        if not is_tracked(container):
            return
        site = f"memcpy_{kind}"
        tl, _ = self._sync_epoch(device, site)
        shadow = self._mirror.setdefault(id(device), {})
        entry = shadow.get(id(container))
        st = self._buf_state(container)
        if kind == "h2d":
            if st.last_write is not None and not tl.ordered_after(st.last_write):
                self._emit(
                    "race",
                    f"upload is unordered with device write at {st.write_site}",
                    site,
                    repr(device),
                    label(container),
                )
            # The eviction that precedes a stale re-upload tombstones the
            # entry, so the dirty marker is honoured even on freed entries.
            if entry is not None and entry.device_wrote:
                self._emit(
                    "missing-note-result",
                    f"re-uploading a container the device itself produced at "
                    f"{entry.device_wrote}; the result was never marked clean "
                    "(note_result/dirty-bit gap), so the host copy looks newer "
                    "and the upload is redundant",
                    site,
                    repr(device),
                    label(container),
                )
            st.last_write = (tl.tid, tl.clock)
            st.write_site = site
            st.reads.clear()
        else:  # d2h
            if st.last_write is not None and not tl.ordered_after(st.last_write):
                self._emit(
                    "race",
                    f"download is unordered with write at {st.write_site}",
                    site,
                    repr(device),
                    label(container),
                )
            st.reads[tl.tid] = (tl.clock, site)

    # ------------------------------------------------------------------
    # ResidentSet shadow
    # ------------------------------------------------------------------

    def on_resident_mark(
        self, device: "Device", container: Any, buffer: Any
    ) -> None:
        """Entry created/refreshed in a ResidentSet (container clean on-device)."""
        shadow = self._mirror.setdefault(id(device), {})
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
        shadow = self._mirror.setdefault(id(device), {})
        if id(container) not in shadow:
            shadow[id(container)] = _ResEntry(container, version, buffer)

    def on_resident_evict(self, device: "Device", container: Any) -> None:
        """Entry dropped from a ResidentSet (device buffer freed)."""
        shadow = self._mirror.setdefault(id(device), {})
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
        shadow = self._mirror.setdefault(id(device), {})
        shadow[id(child)] = _ResEntry(
            child, getattr(child, "version", 0), None, derived=True
        )

    # ------------------------------------------------------------------
    # streams and events
    # ------------------------------------------------------------------

    def on_stream_created(self, stream: Any) -> None:
        self._stream_tl(stream)

    def on_event_record(self, stream: Any, event: Any) -> None:
        tl = self._stream_tl(stream)
        self._events[id(event)] = dict(tl.vc)
        self._anchors[id(event)] = event

    def on_event_wait(self, stream: Any, event: Any) -> None:
        snapshot = self._events.get(id(event))
        if snapshot is not None:
            join(self._stream_tl(stream), snapshot)

    def on_stream_sync(self, stream: Any) -> None:
        join(self._host, self._stream_tl(stream).vc)

    def on_cluster_sync(self, devices: Any) -> None:
        """A cluster barrier or collective: the devices and the host meet."""
        tls = [self._device_tl(d) for d in devices]
        tls.append(self._host)
        frontier = merge_frontier(tls)
        for tl in tls:
            join(tl, frontier)
            tl.tick()

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
