"""Shared result-equivalence policy for cross-backend comparisons.

The library's core claim is that one GraphBLAS program produces the same
answer on every backend.  "Same" has exactly one subtlety: semirings whose
additive reduction is a float sum (or float product) are only reproducible
to rounding, because each backend folds a row's partial products in its own
order (``reduceat`` association differs from a sequential fold, sharded
folds differ again).  Every other standard semiring *selects* stored values
(MIN/MAX/LOR/LAND/FIRST/...) and must match bit-for-bit.

This module is the single home of that policy.  The cross-backend oracle,
the distributed tests, and the differential fuzzer all import from here so
the tolerance rules cannot drift apart.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "EXACT_FOLD_OPS",
    "product_exact",
    "reduce_exact",
    "assert_same",
    "same",
    "describe_mismatch",
]

# Additive folds that are pure selections: associative, idempotent-or-exact,
# and insensitive to association order even in floating point.
EXACT_FOLD_OPS = frozenset(
    {"MIN", "MAX", "LOR", "LAND", "LXOR", "LXNOR", "ANY", "FIRST", "SECOND"}
)


def _dtype_of(obj: Any):
    t = getattr(obj, "type", None)
    if t is not None:
        return t.dtype
    return np.asarray(obj).dtype


def product_exact(semiring, dtype=np.float64) -> bool:
    """Whether a product over ``semiring`` must match bit-for-bit.

    Exact when the additive monoid selects values, when the domain is
    integral/boolean (integer adds are associative exactly), or when the
    multiplicative op is PAIR (the fold sums exact ones — counting).
    """
    add = semiring.add.op.name
    if add in EXACT_FOLD_OPS:
        return True
    if semiring.mult.name == "PAIR":
        return True
    return not np.issubdtype(np.dtype(dtype), np.floating)


def reduce_exact(monoid, dtype=np.float64) -> bool:
    """Whether a scalar/vector reduction over ``monoid`` is bitwise."""
    if monoid.op.name in EXACT_FOLD_OPS:
        return True
    return not np.issubdtype(np.dtype(dtype), np.floating)


def assert_same(got, expected, exact: bool = True, rtol: float = 1e-12) -> None:
    """Assert two results (Vector/Matrix/scalar) agree under the policy.

    ``exact=True`` demands the objects compare equal (bitwise values and
    identical sparsity); ``exact=False`` demands identical structure with
    values matching to ``rtol``.
    """
    # Imported lazily: this module must stay importable from conftest before
    # the core package finishes initialising.
    from ..core.matrix import Matrix
    from ..core.vector import Vector

    if exact:
        if isinstance(got, (Vector, Matrix)):
            assert got == expected, describe_mismatch(got, expected)
            return
        np.testing.assert_array_equal(np.asarray(got), np.asarray(expected))
        return
    if isinstance(got, Vector):
        np.testing.assert_array_equal(got.indices_array(), expected.indices_array())
        np.testing.assert_allclose(got.values_array(), expected.values_array(), rtol=rtol)
    elif isinstance(got, Matrix):
        assert got.shape == expected.shape
        gc, ec = got.container, expected.container
        np.testing.assert_array_equal(gc.indptr, ec.indptr)
        np.testing.assert_array_equal(gc.indices, ec.indices)
        np.testing.assert_allclose(gc.values, ec.values, rtol=rtol)
    else:
        np.testing.assert_allclose(got, expected, rtol=rtol)


def same(got, expected, exact: bool = True, rtol: float = 1e-12) -> bool:
    """Boolean form of :func:`assert_same` (the fuzzer's hot loop)."""
    try:
        assert_same(got, expected, exact=exact, rtol=rtol)
    except AssertionError:
        return False
    return True


def describe_mismatch(got, expected) -> str:
    """A short human-readable account of how two results differ."""
    from ..core.matrix import Matrix
    from ..core.vector import Vector

    if isinstance(got, Vector) and isinstance(expected, Vector):
        gi, ei = got.indices_array(), expected.indices_array()
        if gi.shape != ei.shape or not np.array_equal(gi, ei):
            return (
                f"vector sparsity differs: {gi.size} vs {ei.size} entries "
                f"(first indices {gi[:8].tolist()} vs {ei[:8].tolist()})"
            )
        gv, ev = got.values_array(), expected.values_array()
        bad = np.nonzero(gv != ev)[0]
        k = int(bad[0]) if bad.size else -1
        return f"vector values differ at {bad.size} positions (first: idx {gi[k]}: {gv[k]!r} vs {ev[k]!r})"
    if isinstance(got, Matrix) and isinstance(expected, Matrix):
        if got.shape != expected.shape:
            return f"matrix shapes differ: {got.shape} vs {expected.shape}"
        gc, ec = got.container, expected.container
        if not np.array_equal(gc.indptr, ec.indptr) or not np.array_equal(
            gc.indices, ec.indices
        ):
            return f"matrix sparsity differs ({gc.nvals} vs {ec.nvals} entries)"
        bad = np.nonzero(gc.values != ec.values)[0]
        return f"matrix values differ at {bad.size} stored positions"
    return f"results differ: {got!r} vs {expected!r}"
