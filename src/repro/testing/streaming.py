"""Differential execution of graph-mutation programs.

A mutation program (:func:`repro.testing.programs.generate_mutation_program`)
interleaves random edge batches, explicit compactions, and incremental
analytics queries over one generated graph.  This module replays it on a
backend spec with the graph wrapped in a
:class:`~repro.streaming.graph.DynamicGraph` and the queries answered by
the incremental views (:mod:`repro.streaming.incremental`).

Two independent oracles check every run:

1. **incremental ≡ full recompute** — inside each spec, every query's
   incremental answer is compared against the plain algorithm run on an
   independent materialisation of the current graph (bit-identical for
   BFS/CC; tolerance-bounded for PageRank, whose warm and cold runs are
   both ``tol``-accurate approximations of the same fixpoint);
2. **cross-backend agreement** — per-op snapshots (applied-batch shapes,
   compaction nnz, query results, and the final materialised CSR) must
   agree with the reference backend under the shared equivalence policy.

Failures shrink through :func:`repro.testing.shrink.shrink` with the
mutation-aware :func:`~repro.testing.shrink.mutation_candidates` (ops here
have no slot dependencies, so dropping any op keeps the program valid) and
are written to ``tests/regressions/`` as standalone pytest repros.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..algorithms.bfs import bfs_levels
from ..algorithms.components import connected_components
from ..algorithms.pagerank import pagerank
from ..core.vector import Vector
from ..streaming import (
    DynamicGraph,
    IncrementalBFS,
    IncrementalCC,
    IncrementalPageRank,
    random_edge_batch,
)
from .equivalence import describe_mismatch, same
from .executor import Divergence, backend_session
from .programs import Program, build_graph

__all__ = [
    "STREAMING_SMOKE_SPECS",
    "STREAMING_SPECS",
    "execute_streaming",
    "run_streaming_differential",
]

# The replay matrix the ISSUE names: cuda_sim with the lazy tape on and
# off, and multi_sim at P ∈ {1, 2, 4}.
STREAMING_SMOKE_SPECS = (
    "reference",
    "cpu",
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:2:degree_balanced",
)

STREAMING_SPECS = (
    "reference",
    "cpu",
    "cuda_sim",
    "cuda_sim:lazy=off",
    "cuda_sim:noreuse",
    "multi_sim:1:equal_rows",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
)

# PageRank settings for fuzz queries: tight tolerance so the warm- and
# cold-started iterations land within _PR_RTOL of each other and of every
# other backend's answer.
_PR_TOL = 1e-12
_PR_MAX_ITER = 400
_PR_RTOL = 1e-6


def _full_recompute(algo: str, g: DynamicGraph, source: int) -> Vector:
    """The oracle: the plain algorithm on an independent materialisation."""
    snap = g.snapshot()
    if algo == "bfs":
        return bfs_levels(snap, source)
    if algo == "cc":
        return connected_components(snap)
    return pagerank(snap, tol=_PR_TOL, max_iter=_PR_MAX_ITER)


def execute_streaming(
    program: Program, spec: str = "reference", oracle: bool = True
) -> Tuple[List[Any], Optional[Divergence]]:
    """Replay one mutation program under ``spec``.

    Returns ``(snapshots, oracle_divergence)``: one snapshot per op, plus
    the first incremental-vs-full-recompute mismatch observed inside this
    spec (or None).  Snapshots are host-side values suitable for
    cross-backend comparison.
    """
    snapshots: List[Any] = []
    oracle_div: Optional[Divergence] = None
    with backend_session(spec):
        g = DynamicGraph(build_graph(program.graph).dup())
        views: dict = {}

        def view_for(algo: str, source: int):
            key = (algo, source)
            if key not in views:
                if algo == "bfs":
                    views[key] = IncrementalBFS(g, source)
                elif algo == "cc":
                    views[key] = IncrementalCC(g)
                else:
                    views[key] = IncrementalPageRank(
                        g, tol=_PR_TOL, max_iter=_PR_MAX_ITER
                    )
            return views[key]

        for i, op in enumerate(program.ops):
            kind = op["op"]
            if kind == "edge_batch":
                batch = random_edge_batch(
                    int(op["bseed"]),
                    g.n,
                    inserts=int(op["inserts"]),
                    deletes=int(op["deletes"]),
                    existing=g.edges(),
                )
                g.apply(batch)
                snapshots.append(
                    ("applied", len(batch), batch.insert_count, g.nvals())
                )
            elif kind == "compact":
                did = g.compact()
                snapshots.append(("compacted", bool(did), g.base_nvals))
            elif kind == "query":
                algo = op["algo"]
                source = int(op["source"]) % g.n
                got = view_for(algo, source).query().dup()
                snapshots.append((algo, got))
                if oracle and oracle_div is None:
                    expected = _full_recompute(algo, g, source)
                    exact = algo != "pagerank"
                    rtol = 1e-12 if exact else _PR_RTOL
                    if not same(got, expected, exact=exact, rtol=rtol):
                        oracle_div = Divergence(
                            spec,
                            i,
                            f"query:{algo}",
                            "incremental != full recompute: "
                            + describe_mismatch(got, expected),
                        )
            else:  # pragma: no cover - generator never emits unknown ops
                raise ValueError(f"unknown mutation op {kind!r}")
        # The materialised end state is part of the observable behaviour.
        final = g.matrix.dup()
        final.container.validate()
        snapshots.append(("final_graph", final))
    return snapshots, oracle_div


def _compare_streaming(got: Any, expected: Any) -> Optional[str]:
    """Compare one snapshot pair; returns a mismatch description or None."""
    if isinstance(expected, tuple) and expected and isinstance(expected[0], str):
        tag_e = expected[0]
        tag_g = got[0] if isinstance(got, tuple) and got else None
        if tag_g != tag_e:
            return f"snapshot kind {tag_g!r} != {tag_e!r}"
        if tag_e in ("applied", "compacted"):
            if tuple(got[1:]) != tuple(expected[1:]):
                return f"{tag_e} snapshot {got[1:]} != {expected[1:]}"
            return None
        # (algo, Vector) query snapshots and ("final_graph", Matrix).
        exact = tag_e != "pagerank"
        rtol = 1e-12 if exact else _PR_RTOL
        if not same(got[1], expected[1], exact=exact, rtol=rtol):
            return describe_mismatch(got[1], expected[1])
        return None
    if not same(got, expected, exact=True):
        return describe_mismatch(got, expected)
    return None


def run_streaming_differential(
    program: Program,
    specs: Optional[Tuple[str, ...]] = None,
) -> Optional[Divergence]:
    """Replay a mutation program on every spec; first divergence or None.

    Both oracles apply: the in-spec incremental-vs-full check runs on every
    spec (including reference), then snapshots are compared against the
    reference run.
    """
    specs = tuple(specs or STREAMING_SPECS)
    oracle, odiv = execute_streaming(program, "reference")
    if odiv is not None:
        return odiv
    op_names = [o["op"] for o in program.ops] + ["final_graph"]
    for spec in specs:
        if spec == "reference":
            continue
        got, gdiv = execute_streaming(program, spec)
        if gdiv is not None:
            return gdiv
        for i, (gs, es) in enumerate(zip(got, oracle)):
            detail = _compare_streaming(gs, es)
            if detail is not None:
                return Divergence(spec, i, op_names[i], detail)
    return None
