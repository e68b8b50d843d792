"""Lazy-optimizer switches.

The lazy evaluation layer has one mode knob and five independently
toggleable optimizer passes:

- ``mode`` — ``"auto"`` (record on backends that opt in via their
  ``lazy_by_default`` attribute, i.e. the cuda_sim and multi_sim backends),
  ``"on"`` (record on every backend), or ``"off"`` (eager, the pre-lazy
  behaviour).  The environment variable ``REPRO_LAZY`` overrides the
  initial mode (``0``/``off`` or ``1``/``on``);
- ``fuse`` — ewise-chain fusion (ewise→reduce, fill→ewise) into single
  fused kernels;
- ``dme`` — dead-materialization elimination: nodes whose outputs are
  never observed are skipped entirely, and iso-valued payloads are demoted
  to structure-only uploads;
- ``sink`` — mask sinking: non-complemented output masks restrict the
  *inputs* of elementwise/apply kernels before the kernel runs;
- ``direction`` — loop-level push/pull selection from cached degree stats,
  replacing the per-op runtime heuristic for frontier-style products;
- ``capture`` — whole-loop capture: steady-state flush signatures are
  aggregated into one replay record per device (the CUDA Graphs
  analogue, and the only capture/replay mechanism).

Every mode or pass transition is an observation point: pending recorded
work is forced (and open capture aggregates closed) *before* the switch
flips, so a toggle can never change the semantics of work recorded under
the previous configuration.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "configure",
    "lazy_disabled",
    "lazy_enabled",
    "lazy_mode",
    "pass_enabled",
    "passes_configured",
]

_MODES = ("auto", "on", "off")
_PASSES = ("fuse", "dme", "sink", "direction", "capture")


def _initial_mode() -> str:
    env = os.environ.get("REPRO_LAZY", "").strip().lower()
    if env in ("0", "off", "false", "no"):
        return "off"
    if env in ("1", "on", "true", "yes"):
        return "on"
    return "auto"


class _Flags:
    __slots__ = ("mode", "fuse", "dme", "sink", "direction", "capture")

    def __init__(self) -> None:
        self.mode = _initial_mode()
        self.fuse = True
        self.dme = True
        self.sink = True
        self.direction = True
        self.capture = True


_FLAGS = _Flags()


def lazy_mode() -> str:
    return _FLAGS.mode


def pass_enabled(name: str) -> bool:
    if name not in _PASSES:
        raise ValueError(f"unknown lazy pass {name!r}; expected one of {_PASSES}")
    return bool(getattr(_FLAGS, name))


def _settle() -> None:
    """Force pending work before a configuration transition."""
    from . import schedule

    schedule.wait()


def configure(
    mode: Optional[str] = None,
    fuse: Optional[bool] = None,
    dme: Optional[bool] = None,
    sink: Optional[bool] = None,
    direction: Optional[bool] = None,
    capture: Optional[bool] = None,
) -> None:
    """Set the lazy mode and/or pass switches (None leaves one untouched)."""
    if mode is not None and mode not in _MODES:
        raise ValueError(f"unknown lazy mode {mode!r}; expected one of {_MODES}")
    _settle()
    if mode is not None:
        _FLAGS.mode = mode
    for name, value in (
        ("fuse", fuse),
        ("dme", dme),
        ("sink", sink),
        ("direction", direction),
        ("capture", capture),
    ):
        if value is not None:
            setattr(_FLAGS, name, bool(value))


@contextmanager
def lazy_disabled() -> Iterator[None]:
    """Run eagerly (the pre-lazy baseline); bit-identical by construction."""
    _settle()
    prev = _FLAGS.mode
    _FLAGS.mode = "off"
    try:
        yield
    finally:
        _FLAGS.mode = prev


@contextmanager
def lazy_enabled() -> Iterator[None]:
    """Force recording on every backend (A/B switch for the property tests)."""
    _settle()
    prev = _FLAGS.mode
    _FLAGS.mode = "on"
    try:
        yield
    finally:
        _settle()
        _FLAGS.mode = prev


@contextmanager
def passes_configured(**passes: bool) -> Iterator[None]:
    """Temporarily pin individual optimizer passes (ablation knob)."""
    for name in passes:
        if name not in _PASSES:
            raise ValueError(
                f"unknown lazy pass {name!r}; expected one of {_PASSES}"
            )
    _settle()
    prev = {name: getattr(_FLAGS, name) for name in passes}
    for name, value in passes.items():
        setattr(_FLAGS, name, bool(value))
    try:
        yield
    finally:
        _settle()
        for name, value in prev.items():
            setattr(_FLAGS, name, value)
