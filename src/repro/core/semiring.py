"""GraphBLAS semirings: an additive monoid paired with a multiplicative op.

Semirings are the heart of the GraphBLAS abstraction: ``mxm``/``mxv`` over
(PLUS, TIMES) is linear algebra, over (MIN, PLUS) it is shortest paths, over
(LOR, LAND) it is reachability.  GBTL-CUDA's algorithms are all expressed as
semiring products; this module provides the standard semirings plus a factory
for building custom ones.

Backends may provide *fast paths* keyed on ``(add.name, mult.name)`` — e.g.
the CPU backend lowers PLUS_TIMES SpMV onto pure NumPy and the GPU simulator
picks specialized kernels — falling back to the generic path otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..types import GrBType, promote
from .monoid import (
    ANY_MONOID,
    LAND_MONOID,
    LOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    Monoid,
    PLUS_MONOID,
)
from .operators import (
    BinaryOp,
    FIRST,
    LAND,
    LOR,
    MAX,
    MIN,
    PAIR,
    PLUS,
    SECOND,
    TIMES,
)

__all__ = [
    "Semiring",
    "make_semiring",
    "SEMIRINGS",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_PLUS",
    "MIN_TIMES",
    "MIN_MAX",
    "MAX_MIN",
    "MAX_TIMES",
    "LOR_LAND",
    "LAND_LOR",
    "PLUS_MIN",
    "MIN_FIRST",
    "MIN_SECOND",
    "MAX_FIRST",
    "MAX_SECOND",
    "ANY_PAIR",
    "ANY_SECOND",
    "ANY_FIRST",
    "PLUS_PAIR",
    "PLUS_FIRST",
    "PLUS_SECOND",
]


@dataclass(frozen=True)
class Semiring:
    """``(add, mult)`` pair where ``add`` is a monoid.

    ``zero`` (the add identity) annihilates under the usual interpretation;
    sparse kernels exploit that implicit entries are ``zero`` and never
    materialise them.
    """

    name: str
    add: Monoid = field(compare=False)
    mult: BinaryOp = field(compare=False)

    def zero(self, t: GrBType) -> Any:
        """The additive identity in domain ``t``."""
        return self.add.identity(t)

    def multiply(self, a: Any, b: Any) -> Any:
        return self.mult(a, b)

    def combine(self, a: Any, b: Any) -> Any:
        return self.add(a, b)

    def result_type(self, a: GrBType, b: GrBType) -> GrBType:
        """Output domain for multiplying domains ``a`` and ``b``."""
        t = promote(a, b)
        t = self.mult.result_type(t)
        return self.add.result_type(t)

    @property
    def key(self) -> Tuple[str, str]:
        """Fast-path dispatch key used by backends."""
        return (self.add.op.name, self.mult.name)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Semiring({self.name})"


SEMIRINGS: Dict[str, Semiring] = {}


def make_semiring(name: str, add: Monoid, mult: BinaryOp) -> Semiring:
    """Create and register a :class:`Semiring`."""
    s = Semiring(name, add, mult)
    SEMIRINGS[name] = s
    return s


# The classic arithmetic semiring.
PLUS_TIMES = make_semiring("PLUS_TIMES", PLUS_MONOID, TIMES)
# Tropical semirings — SSSP and friends.
MIN_PLUS = make_semiring("MIN_PLUS", MIN_MONOID, PLUS)
MAX_PLUS = make_semiring("MAX_PLUS", MAX_MONOID, PLUS)
MIN_TIMES = make_semiring("MIN_TIMES", MIN_MONOID, TIMES)
MIN_MAX = make_semiring("MIN_MAX", MIN_MONOID, MAX)
MAX_MIN = make_semiring("MAX_MIN", MAX_MONOID, MIN)
MAX_TIMES = make_semiring("MAX_TIMES", MAX_MONOID, TIMES)
# Boolean semiring — BFS/reachability.
LOR_LAND = make_semiring("LOR_LAND", LOR_MONOID, LAND)
LAND_LOR = make_semiring("LAND_LOR", LAND_MONOID, LOR)
PLUS_MIN = make_semiring("PLUS_MIN", PLUS_MONOID, MIN)
# Select semirings — parent BFS, connected components.
MIN_FIRST = make_semiring("MIN_FIRST", MIN_MONOID, FIRST)
MIN_SECOND = make_semiring("MIN_SECOND", MIN_MONOID, SECOND)
MAX_FIRST = make_semiring("MAX_FIRST", MAX_MONOID, FIRST)
MAX_SECOND = make_semiring("MAX_SECOND", MAX_MONOID, SECOND)
ANY_PAIR = make_semiring("ANY_PAIR", ANY_MONOID, PAIR)
ANY_SECOND = make_semiring("ANY_SECOND", ANY_MONOID, SECOND)
ANY_FIRST = make_semiring("ANY_FIRST", ANY_MONOID, FIRST)
# Structure-counting semirings — triangle counting uses PLUS_PAIR.
PLUS_PAIR = make_semiring("PLUS_PAIR", PLUS_MONOID, PAIR)
PLUS_FIRST = make_semiring("PLUS_FIRST", PLUS_MONOID, FIRST)
PLUS_SECOND = make_semiring("PLUS_SECOND", PLUS_MONOID, SECOND)
