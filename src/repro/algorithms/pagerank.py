"""PageRank via repeated vxm over the arithmetic semiring.

The power iteration uses the scaled-vector formulation: each pass scales the
rank vector by the reciprocal out-degrees (one ewise_mult) and propagates it
along the raw adjacency, which equals r·(D⁻¹A) without materialising the
row-stochastic matrix.  Dangling vertices (zero out-degree) redistribute
their mass uniformly — the standard formulation.  The explicit transition
matrix, where a caller wants it, is :func:`repro.algorithms.ppr_transition`.
"""

from __future__ import annotations

from typing import Optional

from ..core import operations as ops
from ..core.assign import assign_scalar
from ..core.descriptor import Descriptor
from ..core.fused import ewise_apply
from ..core.matrix import Matrix
from ..core.operators import ABS, MINUS, MINV, PLUS, TIMES
from ..core.monoid import PLUS_MONOID
from ..core.semiring import PLUS_TIMES
from ..core.vector import Vector
from ..exceptions import InvalidValueError
from ..types import FP64

__all__ = ["pagerank"]


def pagerank(
    g: Matrix,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 100,
    warm_start: Optional[Vector] = None,
) -> Vector:
    """PageRank vector (dense; sums to 1). Converges in L1 norm to ``tol``.

    ``warm_start`` seeds the power iteration with a previous rank vector
    instead of the uniform distribution (read-only; a fresh vector is
    returned).  Streaming updates restart from the pre-batch ranks: the
    iteration converges to the same fixpoint from any stochastic start, so
    a warm restart after a small edge batch needs only the iterations that
    the perturbation actually displaced.
    """
    if not 0.0 <= damping < 1.0:
        raise InvalidValueError(f"damping must be in [0, 1), got {damping}")
    n = g.nrows
    if n == 0:
        return Vector.sparse(FP64, 0)
    gf = g if g.type is FP64 else Matrix(g.container.astype(FP64))
    # Out-degree (weighted) and its reciprocal, computed device-side.
    outdeg = Vector.sparse(FP64, n)
    ops.reduce_to_vector(outdeg, gf, PLUS_MONOID)
    inv = Vector.sparse(FP64, n)
    ops.apply(inv, outdeg, MINV)
    # Dangling indicator built on-device: 1 wherever outdeg has no entry.
    dangling = Vector.sparse(FP64, n)
    assign_scalar(
        dangling,
        1.0,
        mask=outdeg,
        desc=Descriptor(complement_mask=True, structural_mask=True),
    )
    if warm_start is not None:
        if warm_start.size != n:
            raise InvalidValueError(
                f"warm_start size {warm_start.size} != nrows {n}"
            )
        r = warm_start
    else:
        # Uniform start vector as a device-side fill — never uploaded.
        r = Vector.sparse(FP64, n)
        assign_scalar(r, 1.0 / n)
    teleport = (1.0 - damping) / n
    # Every iteration flushes the same lazy tape; the optimizer captures
    # the steady-state signature automatically (repro.lazy.capture) and
    # replays it as aggregated graph launches — no manual capture scope.
    for _ in range(max_iter):
        # Mass parked on dangling vertices, redistributed uniformly.
        dmass = 0.0
        if dangling.nvals:
            captured = Vector.sparse(FP64, n)
            ops.ewise_mult(captured, r, dangling, TIMES)
            dmass = float(ops.reduce(captured, PLUS_MONOID))
        # Scale by 1/outdeg, then propagate along the raw adjacency:
        # (r ⊙ d⁻¹)·A ≡ r·(D⁻¹A) without ever materialising the
        # row-stochastic matrix (no setup mxm, no diagonal upload).
        q = Vector.sparse(FP64, n)
        ops.ewise_mult(q, r, inv, TIMES)
        r_new = Vector.sparse(FP64, n)
        ops.vxm(r_new, q, gf, PLUS_TIMES)
        ops.apply(r_new, r_new, TIMES, bind_first=damping)
        base = teleport + damping * dmass / n
        # Device-side constant fill instead of a host-built dense vector;
        # under the fusing optimizer the fill never even materialises — it
        # is generated inside the union-add kernel.
        shifted = Vector.sparse(FP64, n)
        assign_scalar(shifted, base)
        ops.ewise_add(shifted, shifted, r_new, PLUS)
        r_new = shifted
        # L1 convergence check — |r_new − r| in one fused pass.
        diff = Vector.sparse(FP64, n)
        ewise_apply(diff, r_new, r, MINUS, ABS)
        delta = float(ops.reduce(diff, PLUS_MONOID))
        r = r_new
        if delta < tol:
            break
    return r
