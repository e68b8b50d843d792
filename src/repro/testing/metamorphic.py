"""Metamorphic invariants checked on reference-backend output.

Differential testing catches backends disagreeing with the reference; these
invariants catch the reference itself being wrong, by checking properties
that hold for *any* correct GraphBLAS implementation:

- **vertex-permutation equivariance** — relabelling the vertices of every
  input relabels the output the same way: ``f(P·x) == P·f(x)``;
- **semiring isomorphism** — negation is an isomorphism between the
  (MIN, +) and (MAX, +) semirings: ``min_plus(A, u) == -max_plus(-A, -u)``
  (the ISSUE's MIN_PLUS ↔ MAX_MINUS pairing: max of negated sums);
- **mask/complement partition** — a structural mask and its complement
  split the unmasked result into two disjoint parts whose union is exactly
  the unmasked result (with REPLACE, no accumulator);
- **duplicate-edge idempotence** — for an idempotent dup monoid, building
  a graph from a doubled edge list yields the same matrix, and therefore
  the same products, as building from the unique list;
- **batch composition** — batched multi-source kernels (multi-source BFS,
  blocked personalized PageRank) are row-wise independent: each source's
  row in a batch-of-k must be bit-identical to its batch-of-1 run.  This
  is the contract the serving layer's coalescer relies on to merge
  queries from different users into one launch (:mod:`repro.serve`);
- **incremental ≡ full recompute** — replaying a graph-mutation program,
  every incrementally-maintained query (BFS levels, CC labels, PageRank)
  must match the plain algorithm run on an independent materialisation of
  the mutated graph: bit-identical for the integer fixpoints (BFS/CC),
  tolerance-bounded for PageRank (:mod:`repro.streaming`).

All checks return ``None`` on success or a human-readable failure string.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from ..backends.dispatch import use_backend
from ..core import operations as ops
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.operators import AINV, LAND, LOR, MAX, MIN, SECOND
from ..core.semiring import MAX_PLUS, MIN_PLUS
from ..core.vector import Vector
from ..types import FP64
from .equivalence import same
from .executor import execute
from .programs import Program, annotate_exactness, build_env, generate_program

__all__ = [
    "check_permutation_equivariance",
    "check_semiring_negation",
    "check_mask_partition",
    "check_duplicate_idempotence",
    "check_batch_composition",
    "check_incremental_recompute",
    "run_metamorphic_suite",
]


# ---------------------------------------------------------------------------
# Permutation equivariance
# ---------------------------------------------------------------------------


def _permute_snapshot(snap: Any, perm: np.ndarray) -> Any:
    """Apply the vertex relabelling to a reference snapshot."""
    if isinstance(snap, Vector):
        idx = perm[snap.indices_array()]
        order = np.argsort(idx, kind="stable")
        return Vector.from_lists(
            idx[order], snap.values_array()[order], snap.size, snap.type
        )
    if isinstance(snap, Matrix):
        ri, ci, vv = snap.to_lists()
        return Matrix.from_lists(
            perm[np.asarray(ri, dtype=np.int64)],
            perm[np.asarray(ci, dtype=np.int64)],
            np.asarray(vv, dtype=snap.type.dtype),
            snap.nrows, snap.ncols, snap.type,
        )
    return snap  # scalars are permutation-invariant


def check_permutation_equivariance(
    program: Program, perm_seed: int = 0
) -> Optional[str]:
    """``f(P·x) == P·f(x)`` for an equivariant-profile program.

    The program must avoid index-dependent ops (extract/assign/TRIL-style
    selects) — generate it with ``profile="equivariant"``.
    """
    base = execute(program, "reference")
    env = build_env(program)
    perm = np.random.default_rng(perm_seed).permutation(env.n).astype(np.int64)
    permuted = execute(program, "reference", perm=perm)
    exact = annotate_exactness(program)
    for i, (b, p) in enumerate(zip(base, permuted)):
        expected = _permute_snapshot(b, perm)
        # Permutation reorders the additive folds, so inexact ops compare
        # with tolerance even within the single reference backend.
        if not same(p, expected, exact=exact[i], rtol=1e-9):
            return (
                f"op #{i} ({program.ops[i]['op']}) is not "
                f"permutation-equivariant (perm_seed={perm_seed})"
            )
    return None


# ---------------------------------------------------------------------------
# Semiring isomorphism: MIN_PLUS vs negated MAX_PLUS
# ---------------------------------------------------------------------------


def _negated(m: Matrix) -> Matrix:
    out = Matrix.sparse(m.type, m.nrows, m.ncols)
    return ops.apply(out, m, AINV)


def _negated_vec(v: Vector) -> Vector:
    out = Vector.sparse(v.type, v.size)
    return ops.apply(out, v, AINV)


def check_semiring_negation(graph: Matrix, u: Vector) -> Optional[str]:
    """``min_plus(A, u) == -max_plus(-A, -u)`` bit-for-bit.

    Negation is exact in floating point and maps MIN onto MAX and ``+``
    onto itself, so the two computations must agree exactly — any
    difference means one of the two additive fold implementations is
    broken (e.g. a wrong identity or a wrong terminal element).
    """
    with use_backend("reference"):
        w1 = ops.mxv(Vector.sparse(FP64, graph.nrows), graph, u, MIN_PLUS)
        w2 = ops.mxv(
            Vector.sparse(FP64, graph.nrows), _negated(graph), _negated_vec(u), MAX_PLUS
        )
        w2n = _negated_vec(w2)
    if not same(w2n, w1, exact=True):
        return "MIN_PLUS(A,u) != -MAX_PLUS(-A,-u): additive fold asymmetry"
    with use_backend("reference"):
        c1 = ops.mxm(Matrix.sparse(FP64, graph.nrows, graph.ncols), graph, graph, MIN_PLUS)
        na = _negated(graph)
        c2 = ops.mxm(Matrix.sparse(FP64, graph.nrows, graph.ncols), na, na, MAX_PLUS)
        c2n = _negated(c2)
    if not same(c2n, c1, exact=True):
        return "MIN_PLUS(A,A) != -MAX_PLUS(-A,-A): mxm additive fold asymmetry"
    return None


# ---------------------------------------------------------------------------
# Mask/complement partition
# ---------------------------------------------------------------------------


def check_mask_partition(graph: Matrix, u: Vector, mask: Vector, semiring) -> Optional[str]:
    """``r<M,struct,replace> ⊎ r<¬M,struct,replace> == r`` exactly.

    The two structural-masked results live on disjoint index sets (the
    mask's pattern and its complement), so their entry-union must
    reconstruct the unmasked result — masked kernels may *prune* work but
    must not change any kept value or drop any kept entry.
    """
    n = graph.nrows
    d_keep = Descriptor(structural_mask=True, replace=True)
    d_comp = Descriptor(structural_mask=True, complement_mask=True, replace=True)
    with use_backend("reference"):
        r = ops.mxv(Vector.sparse(FP64, n), graph, u, semiring)
        rm = ops.mxv(Vector.sparse(FP64, n), graph, u, semiring, mask=mask, desc=d_keep)
        rc = ops.mxv(Vector.sparse(FP64, n), graph, u, semiring, mask=mask, desc=d_comp)
        # Disjointness first: no index may appear on both sides.
        inter = np.intersect1d(rm.indices_array(), rc.indices_array())
        if inter.size:
            return f"mask partition overlap at indices {inter[:5].tolist()}"
        union = ops.ewise_add(Vector.sparse(FP64, n), rm, rc, SECOND)
    if not same(union, r, exact=True):
        return f"mask/complement union does not reconstruct the unmasked {semiring.name} result"
    return None


# ---------------------------------------------------------------------------
# Duplicate-edge idempotence
# ---------------------------------------------------------------------------

_IDEMPOTENT_DUPS = {"MIN": MIN, "MAX": MAX, "LOR": LOR, "LAND": LAND}


def check_duplicate_idempotence(graph: Matrix, dup_name: str = "MIN") -> Optional[str]:
    """Doubling every edge must be a no-op under an idempotent dup monoid.

    ``build(E ++ E, dup=⊕) == build(E)`` whenever ``x ⊕ x == x`` — this
    guards the COO deduplication path (sort + reduceat fast path vs the
    sequential fallback) that every generator and the fuzzer itself rely
    on for replayability.
    """
    dup = _IDEMPOTENT_DUPS[dup_name]
    ri, ci, vv = graph.to_lists()
    typ = graph.type
    if dup_name in ("LOR", "LAND"):
        # Logical dups are only value-preserving on the boolean domain
        # (LOR(2.0, 2.0) is True, not 2.0) — check them on the pattern.
        from ..types import BOOL

        vv = [True] * len(vv)
        typ = BOOL
    base = Matrix.from_lists(ri, ci, vv, graph.nrows, graph.ncols, typ)
    ri2 = list(ri) + list(ri)
    ci2 = list(ci) + list(ci)
    vv2 = list(vv) + list(vv)
    doubled = Matrix.from_lists(ri2, ci2, vv2, graph.nrows, graph.ncols, typ, dup=dup)
    if not same(doubled, base, exact=True):
        return f"doubled edge list under idempotent {dup_name} changed the matrix"
    return None


# ---------------------------------------------------------------------------
# Batch composition: batch-of-1 ≡ single row of batch-of-k
# ---------------------------------------------------------------------------


def check_batch_composition(graph: Matrix, sources: List[int]) -> Optional[str]:
    """Each row of a batched launch must equal its batch-of-1 run, exactly.

    Checks the two batched kernels the serving layer coalesces onto:
    multi-source BFS (k frontiers, one masked mxm per level) and blocked
    personalized PageRank (k rank rows, one SpMM per iteration).  Both are
    row-wise independent by construction, so batch composition must not
    perturb any bit of any row — the invariant that makes coalescing
    queries from unrelated users safe.
    """
    from ..algorithms.msbfs import bfs_levels_multi
    from ..algorithms.ppr import ppr_batch

    def _row(m: Matrix, i: int):
        idx, vals = m.container.row(i)
        return idx.copy(), vals.copy()

    with use_backend("reference"):
        levels = bfs_levels_multi(graph, sources)
        ranks = ppr_batch(graph, sources, damping=0.85, iters=4)
        for i, s in enumerate(sources):
            li, lv = _row(levels, i)
            si, sv = _row(bfs_levels_multi(graph, [s]), 0)
            if not (np.array_equal(li, si) and np.array_equal(lv, sv)):
                return (
                    f"msbfs row for source {s} differs between batch-of-"
                    f"{len(sources)} and batch-of-1"
                )
            ri, rv = _row(ranks, i)
            pi, pv = _row(ppr_batch(graph, [s], damping=0.85, iters=4), 0)
            if not (np.array_equal(ri, pi) and np.array_equal(rv, pv)):
                return (
                    f"ppr row for source {s} differs between batch-of-"
                    f"{len(sources)} and batch-of-1"
                )
    return None


# ---------------------------------------------------------------------------
# Incremental ≡ full recompute (the streaming invariant)
# ---------------------------------------------------------------------------


def check_incremental_recompute(seed: int) -> Optional[str]:
    """Incremental views must agree with full recompute on the mutated graph.

    Generates a mutation program for ``seed`` and replays it on the
    reference backend; every query op compares the incremental answer
    against the plain algorithm run on an independent snapshot of the
    current graph state (exact for BFS/CC, rtol for PageRank).  The
    divergence check against other backends lives in the fuzzer's
    streaming lane; this is the backend-independent half of the invariant.
    """
    from .programs import generate_mutation_program
    from .streaming import execute_streaming

    prog = generate_mutation_program(seed)
    _, divergence = execute_streaming(prog, "reference")
    if divergence is not None:
        return f"{prog.describe()}: {divergence}"
    return None


# ---------------------------------------------------------------------------
# Suite driver (used by the fuzzer's sampled metamorphic lane)
# ---------------------------------------------------------------------------


def run_metamorphic_suite(seed: int) -> List[str]:
    """Run every invariant once for ``seed``; returns failure strings."""
    failures: List[str] = []

    prog = generate_program(seed, profile="equivariant")
    msg = check_permutation_equivariance(prog, perm_seed=seed)
    if msg:
        failures.append(f"[permutation] {prog.describe()}: {msg}")

    full = generate_program(seed, profile="full")
    env = build_env(full)
    graph, u, mask = env.matrices[0], env.vectors[0], env.mask_vectors[0]

    msg = check_semiring_negation(graph, u)
    if msg:
        failures.append(f"[negation] {full.describe()}: {msg}")

    from ..core.semiring import LOR_LAND, MIN_PLUS as _MP, PLUS_TIMES

    for sr in (PLUS_TIMES, _MP, LOR_LAND):
        msg = check_mask_partition(graph, u, mask, sr)
        if msg:
            failures.append(f"[mask-partition] {full.describe()}: {msg}")

    for dup_name in sorted(_IDEMPOTENT_DUPS):
        msg = check_duplicate_idempotence(graph, dup_name)
        if msg:
            failures.append(f"[dup-idempotence:{dup_name}] {full.describe()}: {msg}")

    rng = np.random.default_rng(seed)
    k = min(int(rng.integers(2, 6)), graph.nrows)
    sources = rng.choice(graph.nrows, size=k, replace=False).tolist()
    msg = check_batch_composition(graph, [int(s) for s in sources])
    if msg:
        failures.append(f"[batch-composition] {full.describe()}: {msg}")

    msg = check_incremental_recompute(seed)
    if msg:
        failures.append(f"[incremental-recompute] {msg}")
    return failures
