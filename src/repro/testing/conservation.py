"""Counter-conservation invariants on cuda_sim / multi_sim profiles.

The simulator's performance layers (transfer elision, loop capture,
P-way sharding) must change *when* work is charged, never *how much* total
logical work exists.  Three conservation laws capture that:

- **transfer conservation** — bytes actually copied H2D plus bytes elided
  is constant whether elision is on or off: elision may only move traffic
  between the two counters, never create or destroy it;
- **flop conservation** — the sum of kernel flops across all P devices of
  a sharded pull product equals the single-device flop count: block-row
  sharding repartitions rows, it does not change per-row work;
- **replay conservation** — expanding ``graph_replay[...]`` records back
  to their member kernels reproduces, device by device, the per-kernel
  launch counts of a capture-off run, and the expanded view's total time
  still equals ``kernel_time_us`` (attribution is lossless).

Each check returns ``None`` on success or a failure description.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import algorithms
from ..backends.dispatch import get_backend, use_backend
from ..core import operations as ops
from ..core.semiring import MIN_PLUS, PLUS_TIMES
from ..core.vector import Vector
from ..gpu.device import get_device, reset_device
from ..policy import policy
from ..types import FP64
from .executor import execute
from .programs import Program, build_env

__all__ = [
    "check_transfer_conservation",
    "check_flop_conservation",
    "check_replay_conservation",
    "run_conservation_suite",
]


def _fresh_cuda_sim():
    be = get_backend("cuda_sim")
    be.evict_all()
    reset_device()
    return be


def check_transfer_conservation(program: Program) -> Optional[str]:
    """Every byte elision saves must be accounted for, and none invented.

    Three laws tie the two transfer counters across elision modes:

    - with elision off, the elided counter must stay exactly zero;
    - elision may only *remove* uploads: ``h2d(on) <= h2d(off)``;
    - every removed byte is recorded: ``h2d(off) - h2d(on) <=
      h2d_elided(on)``.  (The elided counter charges per consumption of a
      device-resident container, so it upper-bounds the savings — equality
      holds exactly when each elided container is consumed once.)
    """
    totals = []
    for elide in (True, False):
        be = _fresh_cuda_sim()
        with policy(elision=elide):
            execute(program, "cuda_sim")
        stats = get_device().allocator.stats
        totals.append((float(stats.h2d_bytes), float(stats.h2d_elided_bytes)))
        be.evict_all()
    (on_h2d, on_elided), (off_h2d, off_elided) = totals
    if off_elided != 0.0:
        return f"elision disabled but {off_elided:g} bytes recorded as elided"
    saved = off_h2d - on_h2d
    if saved < 0:
        return (
            f"elision *added* transfer traffic: {on_h2d:g} B uploaded with "
            f"elision on vs {off_h2d:g} B with it off"
        )
    if saved > on_elided:
        return (
            f"unaccounted transfer savings: {saved:g} B disappeared but only "
            f"{on_elided:g} B recorded as elided"
        )
    return None


def _kernel_flops(profiler) -> float:
    return sum(r.flops for r in profiler.records if r.kind == "kernel")


def check_flop_conservation(
    program: Program, nparts: int = 4, splitter: str = "degree_balanced"
) -> Optional[str]:
    """P-shard flop sum equals single-device flops for a pull product.

    The probe runs one forced-pull ``PLUS_TIMES`` and one forced-pull
    ``MIN_PLUS`` mxv over the program's graph and dense-ish vector: pull
    decomposes by output row, so total row work is invariant under any
    block-row split.
    """
    env = build_env(program)
    graph, u = env.matrices[0], env.vectors[0]

    def probe():
        w = ops.mxv(Vector.sparse(FP64, graph.nrows), graph, u, PLUS_TIMES, direction="pull")
        w2 = ops.mxv(Vector.sparse(FP64, graph.nrows), graph, u, MIN_PLUS, direction="pull")
        return w, w2

    _fresh_cuda_sim()
    with use_backend("cuda_sim"):
        # Bind the probe outputs: a discarded result is a *dead*
        # materialization under the lazy optimizer and would (correctly)
        # never launch, which is not what a flop-counting probe wants.
        keep = probe()
    single = _kernel_flops(get_device().profiler)

    ms = get_backend("multi_sim").configure(nparts=nparts, splitter=splitter)
    ms.reset()
    with use_backend(ms):
        keep = probe()
    sharded = sum(_kernel_flops(d.profiler) for d in ms.cluster.devices)
    del keep

    if not np.isclose(single, sharded, rtol=1e-9):
        return (
            f"flops not conserved across P={nparts} ({splitter}): "
            f"single-device {single:g} vs shard sum {sharded:g}"
        )
    return None


def _counts_by_kernel(profiler, expand: bool) -> Dict[str, int]:
    agg = profiler.by_kernel(expand_replays=expand)
    return {
        name: int(row["count"])
        for name, row in agg.items()
        if not name.startswith("graph_replay[")
    }


def _bfs_profile(
    graph, source: int, nparts: Optional[int]
) -> List[Tuple[Dict[str, int], Dict[str, int], float, float]]:
    """Per device of one BFS run on cuda_sim (``nparts`` None) or multi_sim:
    (replay-expanded counts, plain counts, expanded time, kernel time)."""
    if nparts is None:
        be = _fresh_cuda_sim()
    else:
        be = get_backend("multi_sim").configure(nparts=nparts)
        be.reset()
    with use_backend(be):
        algorithms.bfs_levels(graph, source % graph.nrows)
    out = []
    for dev in be.devices():
        prof = dev.profiler
        expanded = prof.by_kernel(expand_replays=True)
        out.append((
            _counts_by_kernel(prof, expand=True),
            _counts_by_kernel(prof, expand=False),
            sum(r["time_us"] for r in expanded.values()),
            prof.kernel_time_us,
        ))
    if nparts is None:
        be.evict_all()
    return out


def check_replay_conservation(program: Program, source: int = 0) -> Optional[str]:
    """Replay-expanded launch counts match a capture-off run of BFS.

    Checked per device on cuda_sim and on multi_sim at P ∈ {2, 4}, where
    every shard device captures and replays independently.  Also checks
    the documented lossless-attribution property: the expanded per-kernel
    view sums to exactly ``kernel_time_us``.
    """
    graph = build_env(program).matrices[0]
    for nparts in (None, 2, 4):
        where = "cuda_sim" if nparts is None else f"multi_sim P={nparts}"
        on = _bfs_profile(graph, source, nparts)
        with policy(capture=False):
            off = _bfs_profile(graph, source, nparts)
        for p, ((expanded, _, exp_time, kernel_us), (_, plain, _, _)) in enumerate(
            zip(on, off)
        ):
            if not np.isclose(exp_time, kernel_us, rtol=1e-9):
                return (
                    f"{where} device {p}: replay expansion lost time: expanded "
                    f"sum {exp_time:g}us vs kernel_time_us {kernel_us:g}us"
                )
            if expanded != plain:
                diff = {
                    k: (expanded.get(k, 0), plain.get(k, 0))
                    for k in sorted(set(expanded) | set(plain))
                    if expanded.get(k, 0) != plain.get(k, 0)
                }
                return (
                    f"{where} device {p}: replay-expanded launch counts "
                    f"disagree with the capture-off run: {diff}"
                )
    return None


def run_conservation_suite(program: Program) -> List[str]:
    """All three conservation laws for one program; returns failures."""
    failures: List[str] = []
    msg = check_transfer_conservation(program)
    if msg:
        failures.append(f"[transfer] {program.describe()}: {msg}")
    for nparts in (2, 4):
        for splitter in ("equal_rows", "degree_balanced"):
            msg = check_flop_conservation(program, nparts, splitter)
            if msg:
                failures.append(f"[flops] {program.describe()}: {msg}")
    msg = check_replay_conservation(program)
    if msg:
        failures.append(f"[replay] {program.describe()}: {msg}")
    return failures
