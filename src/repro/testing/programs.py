"""Random well-typed GraphBLAS programs.

A *program* is a replayable value: a graph recipe (generator name, size,
seed), a value seed, and a sequence of operation specs.  Everything is a
plain JSON-serialisable dict, so a failing program can be shrunk, embedded
in a regression test, and reconstructed byte-identically in another process.

Programs are generated to be **statically well-typed and comparison-safe**:

- every matrix is square (n×n) and every vector has size n, so any operand
  combination is dimension-valid — including the results of earlier ops,
  which feed back into the operand pools to form chains;
- the generator tracks two static facts per value slot, *tainted* (the
  value passed through an association-sensitive float fold, so backends may
  differ in the last ulp) and *positive* (all stored values > 0), and only
  applies truthiness-sensitive operators (boolean semirings, logical ewise
  ops, value-predicate selects) to untainted positive slots.  Without this
  a sum that rounds to exactly 0.0 on one backend and 1e-17 on another
  would legitimately flip a boolean result — a false positive, not a bug;
- ``ANY_FIRST``/``ANY_SECOND`` are excluded from the differential pool
  (the ANY monoid is specified to be nondeterministic); ``ANY_PAIR`` is
  kept because every candidate value is 1.

The ``equivariant`` profile restricts generation to operations that commute
with vertex relabelling (no extract/assign index arrays, no index-based
selects), which the metamorphic permutation invariant requires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import generators
from ..core.matrix import Matrix
from ..core.vector import Vector
from ..core.monoid import (
    LAND_MONOID,
    LOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    PLUS_MONOID,
)
from ..core.operators import (
    ABS,
    AINV,
    IDENTITY,
    MAX,
    MIN,
    OFFDIAG,
    ONE,
    PLUS,
    SECOND,
    TIMES,
    TRIL,
    TRIU,
    VALUEGT,
    VALUELE,
)
from ..core.semiring import SEMIRINGS
from ..core.descriptor import Descriptor
from ..types import BOOL, FP64

__all__ = [
    "Program",
    "generate_program",
    "generate_mutation_program",
    "build_env",
    "GRAPH_RECIPES",
    "SEMIRING_POOL",
    "MUTATION_OPS",
    "QUERY_ALGOS",
    "annotate_exactness",
]


# ---------------------------------------------------------------------------
# Graph recipes — one per repro.generators entry
# ---------------------------------------------------------------------------

# name -> builder(size, seed, weighted) -> Matrix.  Sizes are approximate
# vertex budgets; recipes round to whatever their generator needs.


def _sq(size: int) -> int:
    return max(2, int(np.sqrt(size)))


GRAPH_RECIPES: Dict[str, Any] = {
    "erdos_renyi_gnp": lambda s, seed, w: generators.erdos_renyi_gnp(
        s, min(1.0, 4.0 / max(s, 1)), seed=seed, weighted=w, directed=True
    ),
    "erdos_renyi_gnm": lambda s, seed, w: generators.erdos_renyi_gnm(
        s, 3 * s, seed=seed, weighted=w, directed=True
    ),
    "rmat": lambda s, seed, w: generators.rmat(
        max(2, int(np.ceil(np.log2(max(s, 2))))), edge_factor=4, seed=seed, weighted=w
    ),
    "watts_strogatz": lambda s, seed, w: generators.watts_strogatz(
        max(s, 5), 4, 0.2, seed=seed, weighted=w
    ),
    "barabasi_albert": lambda s, seed, w: generators.barabasi_albert(
        max(s, 4), 2, seed=seed, weighted=w
    ),
    "stochastic_block_model": lambda s, seed, w: generators.stochastic_block_model(
        [max(s // 2, 2), max(s - s // 2, 2)], 0.4, 0.05, seed=seed, weighted=w
    ),
    "grid_2d": lambda s, seed, w: generators.grid_2d(_sq(s), _sq(s), weighted=w, seed=seed),
    "torus_2d": lambda s, seed, w: generators.torus_2d(_sq(s), _sq(s), weighted=w, seed=seed),
    "path_graph": lambda s, seed, w: generators.path_graph(max(s, 2), weighted=w, seed=seed),
    "cycle_graph": lambda s, seed, w: generators.cycle_graph(max(s, 3), weighted=w, seed=seed),
    "complete_graph": lambda s, seed, w: generators.complete_graph(
        min(max(s, 3), 12), weighted=w, seed=seed
    ),
    "star_graph": lambda s, seed, w: generators.star_graph(max(s, 3), weighted=w, seed=seed),
}


# ---------------------------------------------------------------------------
# Operator pools
# ---------------------------------------------------------------------------

# The ANY monoid is spec-nondeterministic; with FIRST/SECOND multiplicands
# different backends may legally select different values, so those two stay
# out of the differential pool.  ANY_PAIR is deterministic (all inputs 1).
SEMIRING_POOL: List[str] = sorted(set(SEMIRINGS) - {"ANY_FIRST", "ANY_SECOND"})

# Semirings whose additive fold is truthiness-sensitive on float inputs.
_BOOLEAN_SEMIRINGS = {"LOR_LAND", "LAND_LOR"}

_EWISE_OPS = {"PLUS": PLUS, "MIN": MIN, "MAX": MAX, "TIMES": TIMES}
_ACCUM_OPS = {"PLUS": PLUS, "MIN": MIN, "MAX": MAX, "SECOND": SECOND}
_UNARY_OPS = {"IDENTITY": IDENTITY, "AINV": AINV, "ABS": ABS, "ONE": ONE}
_MONOIDS = {
    "PLUS_MONOID": PLUS_MONOID,
    "MIN_MONOID": MIN_MONOID,
    "MAX_MONOID": MAX_MONOID,
    "LOR_MONOID": LOR_MONOID,
    "LAND_MONOID": LAND_MONOID,
}
_INDEX_IOPS = {"TRIL": TRIL, "TRIU": TRIU, "OFFDIAG": OFFDIAG}
_VALUE_IOPS = {"VALUEGT": VALUEGT, "VALUELE": VALUELE}

_DESC_FLAGS = ("complement_mask", "structural_mask", "replace")


def lookup_semiring(name: str):
    return SEMIRINGS[name]


def lookup_ewise_op(name: str):
    return _EWISE_OPS[name]


def lookup_accum(name: Optional[str]):
    return _ACCUM_OPS[name] if name else None


def lookup_unary(name: str):
    return _UNARY_OPS[name]


def lookup_monoid(name: str):
    return _MONOIDS[name]


def lookup_iop(name: str):
    return _INDEX_IOPS.get(name) or _VALUE_IOPS[name]


def desc_from_names(names) -> Descriptor:
    return Descriptor(**{f: True for f in names}) if names else Descriptor()


# ---------------------------------------------------------------------------
# Program value
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """A replayable GraphBLAS op sequence over a generated graph."""

    graph: Dict[str, Any]  # {"generator", "size", "seed", "weighted"}
    seed: int              # value/mask/index randomness
    ops: List[Dict[str, Any]] = field(default_factory=list)
    version: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "graph": dict(self.graph),
            "seed": self.seed,
            "ops": [dict(o) for o in self.ops],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Program":
        return cls(
            graph=dict(d["graph"]),
            seed=int(d["seed"]),
            ops=[dict(o) for o in d["ops"]],
            version=int(d.get("version", 1)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "Program":
        return cls.from_dict(json.loads(s))

    def describe(self) -> str:
        g = self.graph
        ops = ", ".join(o["op"] for o in self.ops)
        return (
            f"{g['generator']}(size={g['size']}, seed={g['seed']}, "
            f"weighted={g['weighted']}) seed={self.seed}: [{ops}]"
        )


# ---------------------------------------------------------------------------
# Environment construction
# ---------------------------------------------------------------------------


class Env:
    """The value store a program executes against.

    ``matrices``/``vectors``/``scalars`` hold operands and results;
    ``mask_vectors``/``mask_matrix`` are the dedicated boolean masks.
    Ops append their results, so slot indices are stable per program.
    """

    __slots__ = ("n", "matrices", "vectors", "scalars", "mask_vectors", "mask_matrix")

    def __init__(self, n: int) -> None:
        self.n = n
        self.matrices: List[Matrix] = []
        self.vectors: List[Vector] = []
        self.scalars: List[Any] = []
        self.mask_vectors: List[Vector] = []
        self.mask_matrix: Optional[Matrix] = None


def build_graph(graph_spec: Dict[str, Any]) -> Matrix:
    recipe = GRAPH_RECIPES[graph_spec["generator"]]
    return recipe(int(graph_spec["size"]), int(graph_spec["seed"]), bool(graph_spec["weighted"]))


def build_env(program: Program, perm: Optional[np.ndarray] = None) -> Env:
    """Materialise the initial environment (optionally vertex-permuted).

    With ``perm``, every initial value is relabelled: ``A'[p(i), p(j)] =
    A[i, j]`` and ``v'[p(i)] = v[i]`` — the input transformation of the
    permutation-equivariance invariant.
    """
    a = build_graph(program.graph)
    n = a.nrows
    rng = np.random.default_rng(program.seed)

    if perm is not None:
        ri, ci, vv = a.to_lists()
        p = np.asarray(perm, dtype=np.int64)
        a = Matrix.from_lists(
            p[np.asarray(ri, dtype=np.int64)],
            p[np.asarray(ci, dtype=np.int64)],
            np.asarray(vv, dtype=a.type.dtype),
            n, n, a.type,
        )

    env = Env(n)
    env.matrices.append(a)

    def rand_vector(density: float, lo: float = 1.0, hi: float = 10.0) -> Vector:
        keep = rng.random(n) < density
        idx = np.nonzero(keep)[0]
        # Integral values in [lo, hi): float sums stay exact until a real
        # float fold (semiring product) taints them.
        vals = np.floor(rng.uniform(lo, hi, idx.size))
        if perm is not None:
            order = np.argsort(perm[idx], kind="stable")
            return Vector.from_lists(np.sort(perm[idx]), vals[order], n, FP64)
        return Vector.from_lists(idx, vals, n, FP64)

    def rand_mask(density: float) -> Vector:
        keep = rng.random(n) < density
        idx = np.nonzero(keep)[0]
        vals = rng.random(idx.size) > 0.3
        if perm is not None:
            order = np.argsort(perm[idx], kind="stable")
            return Vector.from_lists(np.sort(perm[idx]), vals[order], n, BOOL)
        return Vector.from_lists(idx, vals, n, BOOL)

    env.vectors.append(rand_vector(0.5))
    env.vectors.append(rand_vector(max(0.1, 3.0 / n)))
    env.vectors.append(rand_vector(1.0))  # full: every entry present
    env.mask_vectors.append(rand_mask(0.4))
    env.mask_vectors.append(rand_mask(0.15))

    mi = rng.integers(0, n, 3 * n)
    mj = rng.integers(0, n, 3 * n)
    mv = rng.random(3 * n) > 0.3
    if perm is not None:
        mi, mj = perm[mi], perm[mj]
    env.mask_matrix = Matrix.from_lists(mi, mj, mv, n, n, BOOL, dup=SECOND)
    return env


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class _SlotMeta:
    """Static per-slot facts the generator tracks for comparison safety."""

    __slots__ = ("tainted", "positive")

    def __init__(self, tainted: bool = False, positive: bool = True) -> None:
        self.tainted = tainted
        self.positive = positive


_FULL_OPS = (
    "mxv", "vxm", "mxm", "ewise_add", "ewise_mult", "apply", "select",
    "reduce", "reduce_to_vector", "extract", "assign", "transpose",
)
_EQUIVARIANT_OPS = (
    "mxv", "vxm", "mxm", "ewise_add", "ewise_mult", "apply",
    "reduce", "reduce_to_vector", "transpose",
)

# Graph-mutation op pool (streaming fuzz mode, repro.testing.streaming):
# random edge batches interleaved with explicit compactions and incremental
# analytics queries.  Batches are derived at runtime from "bseed" via
# repro.streaming.batch.random_edge_batch against the *logical* (base ⊕
# delta) edge set, which is identical on every backend, so one program
# replays bit-identically across specs.
MUTATION_OPS = ("edge_batch", "compact", "query")

#: Algorithms the "query" mutation op can ask for (each is maintained
#: incrementally by repro.streaming.incremental and checked against a full
#: recompute on the materialised graph).
QUERY_ALGOS = ("bfs", "cc", "pagerank")

# Deliberately ill-formed ops for the invalid-program mode.  Each one must
# raise a specific GraphBLASError subclass in the shared frontend, so every
# backend observes the identical exception type; the executor records the
# ("raised", type-name) snapshot and continues with an empty vector slot.
INVALID_OPS = (
    "bad_mxv_dims",        # operand size mismatch   -> DimensionMismatchError
    "bad_apply_domain",    # op undefined on domain  -> DomainMismatchError
    "bad_transpose_desc",  # TRANSPOSE_A flips dims  -> DimensionMismatchError
    "bad_extract_oob",     # index out of range      -> IndexOutOfBoundsError
)


def generate_program(
    seed: int,
    n_ops: Optional[int] = None,
    profile: str = "full",
    size: Optional[int] = None,
) -> Program:
    """Generate a random well-typed program from ``seed``.

    ``profile`` is ``"full"`` (every op kind) or ``"equivariant"`` (only
    vertex-relabelling-equivariant ops, for the permutation invariant).
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, int(seed)]))
    gen_names = sorted(GRAPH_RECIPES)
    gname = gen_names[int(rng.integers(0, len(gen_names)))]
    gsize = int(size if size is not None else rng.integers(8, 40))
    weighted = bool(rng.random() < 0.6)
    graph = {
        "generator": gname,
        "size": gsize,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "weighted": weighted,
    }
    prog = Program(graph=graph, seed=int(rng.integers(0, 2**31 - 1)))

    count = int(n_ops if n_ops is not None else rng.integers(2, 7))
    ops = _FULL_OPS if profile == "full" else _EQUIVARIANT_OPS

    # Slot metadata mirrors build_env: matrices [graph], vectors [u0, u1,
    # u2 (full)].  Generated weights are integral, so even PLUS folds of
    # *initial* values are exact; taint appears once an inexact semiring
    # product runs.
    mats = [_SlotMeta()]
    vecs = [_SlotMeta(), _SlotMeta(), _SlotMeta()]

    def pick_mat() -> int:
        return int(rng.integers(0, len(mats)))

    def pick_vec() -> int:
        return int(rng.integers(0, len(vecs)))

    def pick_semiring(operands_meta) -> str:
        tainted = any(m.tainted for m in operands_meta)
        unsigned = all(m.positive for m in operands_meta)
        pool = [
            s
            for s in SEMIRING_POOL
            if s not in _BOOLEAN_SEMIRINGS or (unsigned and not tainted)
        ]
        return pool[int(rng.integers(0, len(pool)))]

    def pick_mask(space: str):
        r = rng.random()
        if r < 0.55:
            return None
        if space == "v":
            return ["mv", int(rng.integers(0, 2))]
        return ["mm", 0]

    def pick_desc() -> List[str]:
        flags = [f for f in _DESC_FLAGS if rng.random() < 0.18]
        return flags

    def pick_accum() -> Optional[str]:
        if rng.random() < 0.3:
            names = sorted(_ACCUM_OPS)
            return names[int(rng.integers(0, len(names)))]
        return None

    def pick_into(space: str) -> Optional[int]:
        # Start the output from a dup of an existing slot sometimes, so the
        # accumulate/merge write pipeline sees non-empty targets.
        if rng.random() < 0.3:
            return pick_vec() if space == "v" else pick_mat()
        return None

    def result_meta(semiring_name: str, operands_meta) -> _SlotMeta:
        from .equivalence import product_exact

        s = SEMIRINGS[semiring_name]
        tainted = any(m.tainted for m in operands_meta) or not product_exact(s, np.float64)
        positive = all(m.positive for m in operands_meta)
        return _SlotMeta(tainted, positive)

    for _ in range(count):
        kind = ops[int(rng.integers(0, len(ops)))]
        spec: Dict[str, Any] = {"op": kind}

        if kind in ("mxv", "vxm"):
            ai, ui = pick_mat(), pick_vec()
            sr = pick_semiring([mats[ai], vecs[ui]])
            spec.update(
                a=ai,
                u=ui,
                semiring=sr,
                direction=["auto", "push", "pull"][int(rng.integers(0, 3))],
                mask=pick_mask("v"),
                accum=pick_accum(),
                desc=pick_desc(),
                into=pick_into("v"),
            )
            vecs.append(result_meta(sr, [mats[ai], vecs[ui]]))
        elif kind == "mxm":
            ai, bi = pick_mat(), pick_mat()
            sr = pick_semiring([mats[ai], mats[bi]])
            spec.update(
                a=ai, b=bi, semiring=sr,
                mask=pick_mask("m"), accum=pick_accum(), desc=pick_desc(),
                into=pick_into("m"),
            )
            mats.append(result_meta(sr, [mats[ai], mats[bi]]))
        elif kind in ("ewise_add", "ewise_mult"):
            space = "v" if rng.random() < 0.6 else "m"
            names = sorted(_EWISE_OPS)
            opname = names[int(rng.integers(0, len(names)))]
            if space == "v":
                xi, yi = pick_vec(), pick_vec()
                metas = [vecs[xi], vecs[yi]]
            else:
                xi, yi = pick_mat(), pick_mat()
                metas = [mats[xi], mats[yi]]
            spec.update(
                space=space, x=xi, y=yi, binop=opname,
                mask=pick_mask(space), accum=pick_accum(), desc=pick_desc(),
                into=pick_into(space),
            )
            meta = _SlotMeta(
                any(m.tainted for m in metas), all(m.positive for m in metas)
            )
            (vecs if space == "v" else mats).append(meta)
        elif kind == "apply":
            space = "v" if rng.random() < 0.6 else "m"
            si = pick_vec() if space == "v" else pick_mat()
            src = (vecs if space == "v" else mats)[si]
            names = sorted(_UNARY_OPS)
            uname = names[int(rng.integers(0, len(names)))]
            spec.update(
                space=space, src=si, unary=uname,
                mask=pick_mask(space), accum=pick_accum(), desc=pick_desc(),
                into=pick_into(space),
            )
            if uname == "ONE":
                meta = _SlotMeta(False, True)
            elif uname == "ABS":
                meta = _SlotMeta(src.tainted, True)
            elif uname == "AINV":
                meta = _SlotMeta(src.tainted, False)
            else:
                meta = _SlotMeta(src.tainted, src.positive)
            (vecs if space == "v" else mats).append(meta)
        elif kind == "select":
            space = "v" if rng.random() < 0.5 else "m"
            si = pick_vec() if space == "v" else pick_mat()
            src = (vecs if space == "v" else mats)[si]
            iop_pool = sorted(_INDEX_IOPS) if space == "m" else []
            if not src.tainted:
                iop_pool = iop_pool + sorted(_VALUE_IOPS)
            if not iop_pool:
                iop_pool = ["VALUEGT"] if not src.tainted else []
            if not iop_pool:
                continue  # tainted vector: no comparison-safe select exists
            iname = iop_pool[int(rng.integers(0, len(iop_pool)))]
            spec.update(
                space=space, src=si, iop=iname,
                thunk=int(rng.integers(0, 6)),
                mask=pick_mask(space), accum=pick_accum(), desc=pick_desc(),
                into=pick_into(space),
            )
            (vecs if space == "v" else mats).append(_SlotMeta(src.tainted, src.positive))
        elif kind == "reduce":
            space = "v" if rng.random() < 0.6 else "m"
            si = pick_vec() if space == "v" else pick_mat()
            src = (vecs if space == "v" else mats)[si]
            pool = sorted(_MONOIDS)
            if src.tainted or not src.positive:
                pool = [p for p in pool if p not in ("LOR_MONOID", "LAND_MONOID")]
            mname = pool[int(rng.integers(0, len(pool)))]
            spec.update(space=space, src=si, monoid=mname)
        elif kind == "reduce_to_vector":
            ai = pick_mat()
            src = mats[ai]
            pool = sorted(_MONOIDS)
            if src.tainted or not src.positive:
                pool = [p for p in pool if p not in ("LOR_MONOID", "LAND_MONOID")]
            mname = pool[int(rng.integers(0, len(pool)))]
            spec.update(
                src=ai, monoid=mname,
                mask=pick_mask("v"), accum=pick_accum(), desc=pick_desc(),
                into=pick_into("v"),
            )
            from .equivalence import reduce_exact

            vecs.append(
                _SlotMeta(
                    src.tainted or not reduce_exact(_MONOIDS[mname], np.float64),
                    src.positive,
                )
            )
        elif kind == "extract":
            space = "v" if rng.random() < 0.6 else "m"
            si = pick_vec() if space == "v" else pick_mat()
            src = (vecs if space == "v" else mats)[si]
            spec.update(
                space=space, src=si,
                idx_seed=int(rng.integers(0, 2**31 - 1)),
                mask=pick_mask(space), accum=pick_accum(), desc=pick_desc(),
                into=pick_into(space),
            )
            (vecs if space == "v" else mats).append(_SlotMeta(src.tainted, src.positive))
        elif kind == "assign":
            di, si = pick_vec(), pick_vec()
            spec.update(
                dst=di, src=si,
                idx_seed=int(rng.integers(0, 2**31 - 1)),
                mask=pick_mask("v"), accum=pick_accum(), desc=pick_desc(),
            )
            dm, sm = vecs[di], vecs[si]
            vecs.append(
                _SlotMeta(dm.tainted or sm.tainted, dm.positive and sm.positive)
            )
        elif kind == "transpose":
            ai = pick_mat()
            spec.update(
                a=ai, mask=pick_mask("m"), accum=pick_accum(), desc=pick_desc(),
                into=pick_into("m"),
            )
            mats.append(_SlotMeta(mats[ai].tainted, mats[ai].positive))
        prog.ops.append(spec)
    return prog


def generate_mutation_program(
    seed: int,
    n_ops: Optional[int] = None,
    size: Optional[int] = None,
) -> Program:
    """A random graph-mutation program: batches, compactions, queries.

    Executed by :mod:`repro.testing.streaming`: the graph becomes a
    :class:`~repro.streaming.graph.DynamicGraph` and every ``query`` op is
    answered by the matching incremental view *and* checked against a full
    recompute on the materialised graph — the streaming metamorphic
    invariant — before the result is compared across backend specs.

    ``source`` is stored unreduced and taken mod ``n`` at run time, since
    graph recipes round the requested size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x57AB, int(seed)]))
    gen_names = sorted(GRAPH_RECIPES)
    gname = gen_names[int(rng.integers(0, len(gen_names)))]
    gsize = int(size if size is not None else rng.integers(8, 40))
    graph = {
        "generator": gname,
        "size": gsize,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "weighted": bool(rng.random() < 0.6),
    }

    def edge_batch_op(inserts: int, deletes: int) -> Dict[str, Any]:
        return {
            "op": "edge_batch",
            "bseed": int(rng.integers(0, 2**31 - 1)),
            "inserts": inserts,
            "deletes": deletes,
        }

    def query_op() -> Dict[str, Any]:
        algo = QUERY_ALGOS[int(rng.integers(0, len(QUERY_ALGOS)))]
        return {"op": "query", "algo": algo, "source": int(rng.integers(0, 2**16))}

    count = int(n_ops if n_ops is not None else rng.integers(4, 10))
    ops_list: List[Dict[str, Any]] = []
    for _ in range(count):
        r = rng.random()
        if r < 0.40:
            ops_list.append(
                edge_batch_op(int(rng.integers(0, 9)), int(rng.integers(0, 5)))
            )
        elif r < 0.55:
            ops_list.append({"op": "compact"})
        else:
            ops_list.append(query_op())
    # Every program must mutate and observe at least once, else it tests
    # nothing; pin both ends.
    if not any(o["op"] == "edge_batch" for o in ops_list):
        ops_list.insert(0, edge_batch_op(4, 1))
    if not any(o["op"] == "query" for o in ops_list):
        ops_list.append(query_op())
    return Program(
        graph=graph, seed=int(rng.integers(0, 2**31 - 1)), ops=ops_list
    )


def generate_invalid_program(seed: int, n_ops: Optional[int] = None) -> Program:
    """A well-typed program with deliberately ill-formed ops spliced in.

    The error paths are part of the differential contract: every backend
    must raise the *same* :class:`~repro.exceptions.GraphBLASError`
    subclass at the same op.  Valid ops surrounding the invalid ones prove
    that an error leaves the environment usable (failed ops contribute an
    empty placeholder slot on every backend alike).
    """
    prog = generate_program(seed, n_ops=n_ops)
    rng = np.random.default_rng(np.random.SeedSequence([0xBAD, int(seed)]))
    n_bad = int(rng.integers(1, 3))
    for _ in range(n_bad):
        kind = INVALID_OPS[int(rng.integers(0, len(INVALID_OPS)))]
        pos = int(rng.integers(0, len(prog.ops) + 1))
        prog.ops.insert(pos, {"op": kind})
    # Invalid ops consume no slots and produce a placeholder vector, so
    # later slot references stay valid only if we account for the inserted
    # vector slots.  Easiest correct fix: renumber later vector references.
    _renumber_after_insertions(prog)
    return prog


def _renumber_after_insertions(prog: Program) -> None:
    """Fix vector slot references after invalid-op insertions.

    Every op (valid or not) appends exactly one result slot; an invalid op
    always appends a *vector*.  Valid ops generated before the insertion
    referenced vector slots numbered without the interlopers, so any
    reference >= the slot index an earlier invalid op produced must shift
    up by one.
    """
    from .shrink import result_slots

    # Compute, for each op position, how many invalid-op vector slots were
    # produced before it, then shift that op's vector references past those
    # slots.  Invalid slots occupy the index they were created at.
    slots = result_slots(prog)
    invalid_vec_slots = [
        s for (k, s), spec in zip(slots, prog.ops)
        if spec["op"] in INVALID_OPS and k == "v"
    ]
    for j, spec in enumerate(prog.ops):
        if spec["op"] in INVALID_OPS:
            continue
        produced_before = sorted(s for s in invalid_vec_slots if s < slots[j][1])
        if not produced_before:
            continue
        for f in _vector_ref_fields(spec):
            ref = spec.get(f)
            if ref is None or not isinstance(ref, int):
                continue
            # Map the old reference to its new index: bump once for every
            # inserted slot at or below the running value (a fixpoint walk
            # over the inserted positions in ascending order).
            shifted = ref
            for s in produced_before:
                if s <= shifted:
                    shifted += 1
            spec[f] = shifted
        # Mask vectors live in their own pool; never renumbered.


def _vector_ref_fields(spec) -> Tuple[str, ...]:
    """Fields of ``spec`` that reference the *vector* slot pool."""
    op = spec["op"]
    if op in ("mxv", "vxm"):
        return ("u", "into")
    if op == "reduce_to_vector":
        return ("into",)
    if op == "assign":
        return ("dst", "src")
    if op in ("ewise_add", "ewise_mult"):
        return ("x", "y", "into") if spec.get("space") == "v" else ()
    if op in ("apply", "select", "extract"):
        return ("src", "into") if spec.get("space") == "v" else ()
    if op == "reduce":
        return ("src",) if spec.get("space") == "v" else ()
    return ()


# ---------------------------------------------------------------------------
# Static exactness annotation (drives the comparison tolerance per op)
# ---------------------------------------------------------------------------


def annotate_exactness(program: Program) -> List[bool]:
    """Per-op ``exact`` flags: False where backends may differ in rounding.

    Mirrors the taint tracking the generator performs, but recomputed from
    the program alone so shrunk/edited programs stay correctly classified.
    """
    from .equivalence import product_exact, reduce_exact

    mats = [False]          # graph matrix: exact
    vecs = [False, False, False]   # u0, u1, u2: exact
    flags: List[bool] = []

    for spec in program.ops:
        op = spec["op"]
        if op in ("mxv", "vxm"):
            t = (
                mats[spec["a"]]
                or vecs[spec["u"]]
                or not product_exact(SEMIRINGS[spec["semiring"]], np.float64)
            )
            if spec.get("into") is not None:
                t = t or vecs[spec["into"]]
            vecs.append(t)
            flags.append(not t)
        elif op == "mxm":
            t = (
                mats[spec["a"]]
                or mats[spec["b"]]
                or not product_exact(SEMIRINGS[spec["semiring"]], np.float64)
            )
            if spec.get("into") is not None:
                t = t or mats[spec["into"]]
            mats.append(t)
            flags.append(not t)
        elif op in ("ewise_add", "ewise_mult"):
            pool = vecs if spec["space"] == "v" else mats
            t = pool[spec["x"]] or pool[spec["y"]]
            if spec.get("into") is not None:
                t = t or pool[spec["into"]]
            pool.append(t)
            flags.append(not t)
        elif op in ("apply", "select", "extract"):
            pool = vecs if spec["space"] == "v" else mats
            t = pool[spec["src"]]
            if spec.get("into") is not None:
                t = t or pool[spec["into"]]
            pool.append(t)
            flags.append(not t)
        elif op == "reduce":
            pool = vecs if spec["space"] == "v" else mats
            t = pool[spec["src"]] or not reduce_exact(
                _MONOIDS[spec["monoid"]], np.float64
            )
            flags.append(not t)
        elif op == "reduce_to_vector":
            t = mats[spec["src"]] or not reduce_exact(
                _MONOIDS[spec["monoid"]], np.float64
            )
            if spec.get("into") is not None:
                t = t or vecs[spec["into"]]
            vecs.append(t)
            flags.append(not t)
        elif op == "assign":
            t = vecs[spec["dst"]] or vecs[spec["src"]]
            vecs.append(t)
            flags.append(not t)
        elif op == "transpose":
            t = mats[spec["a"]]
            if spec.get("into") is not None:
                t = t or mats[spec["into"]]
            mats.append(t)
            flags.append(not t)
        elif op in INVALID_OPS:
            # The op must raise; ("raised", type) snapshots compare exactly,
            # and the placeholder result slot is an (exact) empty vector.
            vecs.append(False)
            flags.append(True)
        else:  # pragma: no cover - defensive
            flags.append(False)
    return flags
