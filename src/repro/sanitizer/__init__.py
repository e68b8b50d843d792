"""gbsan — sanitizer suite for the simulated GPU stack.

Runtime checkers (race / residency / pool-lifetime / loop-replay, see
:mod:`repro.sanitizer.runtime`).  The static kernel-contract checks live in
gbcheck (:mod:`repro.analysis`, ``tools/gbcheck.py``).

Off by default with zero overhead.  Enable programmatically::

    import repro.sanitizer as gbsan
    gbsan.enable()
    ... run GraphBLAS ops ...
    for finding in gbsan.findings():
        print(finding)

or scoped::

    with gbsan.sanitized() as san:
        ...
    assert not san.findings

or for a whole process via the environment: ``GBSAN=1`` (collect) or
``GBSAN=strict`` (raise :class:`~repro.exceptions.SanitizerError` on the
first hazard).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..exceptions import SanitizerError
from .access import Access
from .runtime import Finding, Sanitizer, activate, deactivate
from . import runtime as _runtime

__all__ = [
    "Access",
    "Finding",
    "Sanitizer",
    "SanitizerError",
    "enable",
    "disable",
    "active",
    "enabled",
    "findings",
    "sanitized",
]


def enable(strict: bool = False) -> Sanitizer:
    """Turn the sanitizer on for the whole process; returns the instance."""
    return activate(strict=strict)


def disable() -> Optional[Sanitizer]:
    """Turn the sanitizer off; returns the instance (findings intact)."""
    return deactivate()


def active() -> Optional[Sanitizer]:
    """The live :class:`Sanitizer`, or ``None`` when disabled."""
    return _runtime.ACTIVE


def enabled() -> bool:
    return _runtime.ACTIVE is not None


def findings() -> List[Finding]:
    """Findings collected so far (empty when disabled)."""
    san = _runtime.ACTIVE
    return list(san.findings) if san is not None else []


@contextmanager
def sanitized(strict: bool = False) -> Iterator[Sanitizer]:
    """Run a block under a fresh sanitizer scope.

    If a sanitizer is already active it is reused (nested scopes share the
    instance and it stays active on exit); otherwise a fresh one is
    installed and removed when the block exits.
    """
    prior = _runtime.ACTIVE
    prior_strict = prior.strict if prior is not None else False
    san = activate(strict=strict)
    try:
        yield san
    finally:
        if prior is None:
            deactivate()
        else:
            # Shared ambient instance (e.g. GBSAN=1): the scope must not
            # leave its strictness behind.
            san.strict = prior_strict


def _from_env() -> None:
    value = os.environ.get("GBSAN", "").strip().lower()
    if value in ("", "0", "false", "off", "no"):
        return
    enable(strict=value == "strict")


_from_env()
