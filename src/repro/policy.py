"""The optimisation policy: every A/B switch under the frontend, in one record.

GraphBLAST carries its direction and load-balancing choices in one
``Descriptor``; :class:`Policy` is the process-wide analogue for the
layers below the GraphBLAS frontend.  Every field is a pure *schedule*
choice — results are bit-identical under any policy — and
``docs/performance.md`` tabulates what each one gates.

:func:`policy` is the only way to change it: a scope that settles the lazy
tape (:func:`repro.lazy.wait`: force pending work, close open capture
aggregates) on entry and again on exit, so recorded work always runs under
the policy it was recorded under.  :func:`current` is the read side.  The
``REPRO_LAZY`` environment variable sets the initial ``lazy`` field, and
:func:`parse_suffixes` maps backend-spec suffixes
(:mod:`repro.testing.executor`) to overrides.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterable, Iterator, Tuple

from .exceptions import InvalidValueError

__all__ = ["Policy", "current", "parse_suffixes", "policy"]

#: Values of the two multi-way fields; every other field is a bool.
CHOICES: Dict[str, Tuple[str, ...]] = {
    "lazy": ("auto", "on", "off"),
    "lanes": ("auto", "scalar", "vector", "merge", "off"),
}


@dataclass(frozen=True)
class Policy:
    """Every optimisation switch; the defaults turn everything on.

    - ``lazy`` — ``auto`` records on backends that opt in via
      ``lazy_by_default`` (cuda_sim, multi_sim), ``on`` records on every
      backend, ``off`` runs eagerly (:mod:`repro.lazy`);
    - ``fuse``, ``dme``, ``sink``, ``direction``, ``capture`` — the lazy
      optimizer's passes (:mod:`repro.lazy.passes`, :mod:`repro.lazy.capture`);
    - ``lanes`` — ``auto`` bins rows per launch, a lane name forces that
      lane, ``off`` keeps each kernel's native lane
      (:mod:`repro.gpu.loadbalance`);
    - ``aux_cache`` — version-stamped transpose/degree memos on containers;
    - ``elision`` — identity-preserving trivial merges and device-resident
      results, so clean containers skip repeated H2D uploads.
    """

    lazy: str = "auto"
    fuse: bool = True
    dme: bool = True
    sink: bool = True
    direction: bool = True
    capture: bool = True
    lanes: str = "auto"
    aux_cache: bool = True
    elision: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            accepted = CHOICES.get(f.name, (False, True))
            if type(value) is not type(accepted[0]) or value not in accepted:
                raise InvalidValueError(
                    f"policy {f.name}={value!r}; accepted: {accepted}"
                )


_ENV_LAZY = {
    "": "auto", "auto": "auto",
    "1": "on", "on": "on", "true": "on", "yes": "on",
    "0": "off", "off": "off", "false": "off", "no": "off",
}


def _lazy_from_env() -> str:
    raw = os.environ.get("REPRO_LAZY", "").strip().lower()
    if raw not in _ENV_LAZY:
        accepted = ", ".join(k for k in _ENV_LAZY if k)
        raise InvalidValueError(f"REPRO_LAZY={raw!r}; accepted: {accepted}")
    return _ENV_LAZY[raw]


_CURRENT = Policy(lazy=_lazy_from_env())


def current() -> Policy:
    """The policy in force."""
    return _CURRENT


def _settle() -> None:
    from .lazy import schedule

    schedule.wait()


@contextmanager
def policy(**overrides: Any) -> Iterator[Policy]:
    """Run the body under the current policy with ``overrides`` applied.

    Entry and exit both settle the lazy tape, so work recorded before the
    scope runs under the old policy and work recorded inside it runs
    under the new one, wherever it is later observed.
    """
    global _CURRENT
    new = replace(_CURRENT, **overrides)
    _settle()
    prev, _CURRENT = _CURRENT, new
    try:
        yield new
    finally:
        try:
            _settle()
        finally:
            _CURRENT = prev


#: The ``noreuse`` spec suffix: the pre-reuse baseline, with the reuse
#: layer and loop capture off.
_NOREUSE = {"aux_cache": False, "elision": False, "capture": False}


def parse_suffixes(suffixes: Iterable[str]) -> Dict[str, Any]:
    """Policy overrides for backend-spec suffixes, in any order.

    Accepted: ``noreuse``, ``lazy=<mode>`` and ``lanes=<mode>``.  An
    unknown suffix, a bad value or a setting given twice raises
    :class:`~repro.exceptions.InvalidValueError` (a ``ValueError``).
    """
    out: Dict[str, Any] = {}
    for suffix in suffixes:
        key, eq, value = suffix.partition("=")
        if suffix == "noreuse":
            new: Dict[str, Any] = dict(_NOREUSE)
        elif eq and key in CHOICES:
            new = {key: value}
        else:
            raise InvalidValueError(
                f"unknown spec suffix {suffix!r}; accepted: noreuse, "
                + ", ".join(f"{k}=<{'|'.join(v)}>" for k, v in CHOICES.items())
            )
        if new.keys() & out.keys():
            raise InvalidValueError(f"spec suffix {suffix!r} repeats a setting")
        out.update(new)
    Policy(**out)  # validates the values
    return out
