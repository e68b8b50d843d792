"""Lazy op-graph with a fusing optimizer.

On the simulated backends (cuda_sim, multi_sim), frontend calls on
vector-valued GraphBLAS operations record into a lazy expression tape
instead of executing; evaluation is forced at observation points (host
extraction, scalar reductions feeding Python control flow, container
mutation, profiler reads, explicit :func:`wait`).  The flush runs an
optimizer over the whole pending program: ewise-chain fusion,
dead-materialization elimination, mask sinking, loop-level push/pull
selection, and automatic whole-loop capture.

Eager mode (``policy(lazy="off")``, and every other backend) executes the
same run closures immediately and is bit-identical by construction — every
optimizer decision is a pure launch/transfer/materialization choice.  The
mode and each pass are fields of :class:`repro.policy.Policy`, switched with
the settling :func:`repro.policy.policy` scope.

See ``docs/optimizer.md`` for the pass-by-pass walkthrough.
"""

from __future__ import annotations

from .schedule import sync, tape_len, wait

__all__ = [
    "sync",
    "tape_len",
    "wait",
]
