"""Reuse-layer switches.

The iteration-aware reuse layer has two independently toggleable parts:

- ``aux_cache`` — version-stamped memoisation of auxiliary structures
  (transpose/CSC, degree vectors, row-nnz maxima) on the containers;
- ``elision`` — identity-preserving trivial merges plus device-resident
  result marking, so clean containers skip repeated H2D uploads.

Both default to on.  :func:`reuse_disabled` restores the pre-reuse
behaviour — benchmarks and the acceptance tests use it to measure the layer
against its own baseline within one process.  Capture/replay (the CUDA
Graphs analogue) is the lazy optimizer's ``capture`` pass, switched with
:func:`repro.lazy.passes_configured`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "aux_cache_enabled",
    "elision_enabled",
    "configure",
    "reuse_disabled",
]


class _Flags:
    __slots__ = ("aux_cache", "elision")

    def __init__(self) -> None:
        self.aux_cache = True
        self.elision = True


_FLAGS = _Flags()


def aux_cache_enabled() -> bool:
    return _FLAGS.aux_cache


def elision_enabled() -> bool:
    return _FLAGS.elision


def configure(
    aux_cache: Optional[bool] = None,
    elision: Optional[bool] = None,
) -> None:
    """Set individual reuse switches (None leaves a switch untouched)."""
    if aux_cache is not None:
        _FLAGS.aux_cache = bool(aux_cache)
    if elision is not None:
        _FLAGS.elision = bool(elision)


@contextmanager
def reuse_disabled() -> Iterator[None]:
    """Run with both reuse switches off.

    With the lazy ``capture`` pass also off, this is the pre-reuse baseline.
    """
    prev = (_FLAGS.aux_cache, _FLAGS.elision)
    _FLAGS.aux_cache = _FLAGS.elision = False
    try:
        yield
    finally:
        _FLAGS.aux_cache, _FLAGS.elision = prev
