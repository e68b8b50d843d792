"""Greedy program shrinking and regression-repro emission.

Given a failing program and a ``still_fails`` predicate, :func:`shrink`
repeatedly tries smaller candidates from one mode's generator, keeping any
candidate that still fails, until a fixpoint or the probe budget is
reached.  The two modes differ only in their candidates:

- :func:`program_candidates` (differential programs) drops ops (with
  dependency cascade), shrinks the graph and unweights values, then clears
  masks/accumulators/descriptors and downgrades semirings;
- :func:`mutation_candidates` (graph-mutation programs, whose ops carry no
  slot references) drops ops, shrinks the graph and thins edge batches.

The result is written as a **standalone pytest file** under
``tests/regressions/``: the file embeds the shrunk program as JSON and
replays it through :func:`repro.testing.executor.run_differential` (or
:func:`repro.testing.streaming.run_streaming_differential` for a mutation
program), so the repro needs nothing but the repo itself and stays green
once the bug is fixed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from .programs import Program

__all__ = [
    "mutation_candidates",
    "program_candidates",
    "result_slots",
    "shrink",
    "write_repro",
]


# Which env pool each op's result lands in ("v" vector, "m" matrix,
# "s" scalar), and which fields of each op reference which pool.
def _result_kind(spec) -> str:
    op = spec["op"]
    if op in ("mxv", "vxm", "reduce_to_vector", "assign") or op.startswith("bad_"):
        return "v"  # invalid-mode ops leave an empty vector placeholder
    if op in ("mxm", "transpose"):
        return "m"
    if op == "reduce":
        return "s"
    return spec["space"]  # ewise/apply/select/extract follow their space


def _refs(spec) -> List[Tuple[str, str]]:
    """(field, pool) pairs naming every env slot this op reads."""
    op = spec["op"]
    out: List[Tuple[str, str]] = []
    if op in ("mxv", "vxm"):
        out += [("a", "m"), ("u", "v"), ("into", "v")]
    elif op == "mxm":
        out += [("a", "m"), ("b", "m"), ("into", "m")]
    elif op in ("ewise_add", "ewise_mult"):
        k = spec["space"]
        out += [("x", k), ("y", k), ("into", k)]
    elif op in ("apply", "select", "extract"):
        k = spec["space"]
        out += [("src", k), ("into", k)]
    elif op == "reduce":
        out += [("src", spec["space"])]
    elif op == "reduce_to_vector":
        out += [("src", "m"), ("into", "v")]
    elif op == "assign":
        out += [("dst", "v"), ("src", "v")]
    elif op == "transpose":
        out += [("a", "m"), ("into", "m")]
    return out


# Initial env slot counts (see programs.build_env): one graph matrix, three
# value vectors.  Masks live in their own pools and are never op results.
_INITIAL = {"v": 3, "m": 1, "s": 0}


def result_slots(program: Program) -> List[Tuple[str, int]]:
    """Per-op (pool, absolute slot index) of the op's result."""
    counts = dict(_INITIAL)
    out = []
    for spec in program.ops:
        k = _result_kind(spec)
        out.append((k, counts[k]))
        counts[k] += 1
    return out


def _drop_op(program: Program, i: int) -> Optional[Program]:
    """Program without op ``i`` (and every op depending on its result)."""
    slots = result_slots(program)
    dead = {i}
    dead_slots = {slots[i]}
    # Later ops referencing a dead slot die too; references above a dead
    # slot shift down by the number of dead slots below them.
    for j in range(i + 1, len(program.ops)):
        spec = program.ops[j]
        for f, pool in _refs(spec):
            ref = spec.get(f)
            if ref is None:
                continue
            if (pool, ref) in dead_slots:
                dead.add(j)
                dead_slots.add(slots[j])
                break
    new_ops = []
    for j, spec in enumerate(program.ops):
        if j in dead:
            continue
        spec = dict(spec)
        for f, pool in _refs(spec):
            ref = spec.get(f)
            if ref is None:
                continue
            shift = sum(1 for (pk, ps) in dead_slots if pk == pool and ps < ref)
            if shift:
                spec[f] = ref - shift
        new_ops.append(spec)
    if len(new_ops) == len(program.ops):
        return None
    return Program(graph=dict(program.graph), seed=program.seed, ops=new_ops)


_SEMIRING_LADDER = ("PLUS_TIMES", "MIN_PLUS", "LOR_LAND")
_MONOID_LADDER = ("PLUS_MONOID", "MIN_MONOID")


def _ladder(current: str, ladder: Tuple[str, ...]) -> Tuple[str, ...]:
    """Strictly-simpler ladder entries only — moving down can't oscillate."""
    if current in ladder:
        return ladder[: ladder.index(current)]
    return ladder


def _simplify_candidates(program: Program, i: int):
    """Yield programs with op ``i`` made simpler in one way."""
    spec = program.ops[i]

    def with_field(**kw) -> Program:
        ops = [dict(o) for o in program.ops]
        ops[i].update(kw)
        return Program(graph=dict(program.graph), seed=program.seed, ops=ops)

    if spec.get("mask") is not None:
        yield with_field(mask=None)
    if spec.get("accum") is not None:
        yield with_field(accum=None)
    if spec.get("desc"):
        yield with_field(desc=[])
    if spec.get("into") is not None:
        yield with_field(into=None)
    if spec.get("direction") not in (None, "auto"):
        yield with_field(direction="auto")
    # Rewire inputs to the base env slots (graph matrix / u0) so the ops
    # that produced the original operands become droppable dead code.
    for f, _pool in _refs(spec):
        if f == "into":
            continue
        ref = spec.get(f)
        if isinstance(ref, int) and ref > 0:
            yield with_field(**{f: 0})
    if "semiring" in spec:
        for name in _ladder(spec["semiring"], _SEMIRING_LADDER):
            yield with_field(semiring=name)
    if "monoid" in spec:
        for name in _ladder(spec["monoid"], _MONOID_LADDER):
            yield with_field(monoid=name)
    if spec.get("unary") not in (None, "IDENTITY"):
        yield with_field(unary="IDENTITY")
    if spec.get("binop") not in (None, "PLUS"):
        yield with_field(binop="PLUS")


def _graph_candidates(program: Program) -> Iterator[Program]:
    """The same ops on a smaller graph, then on an unweighted one."""
    size = int(program.graph["size"])
    for smaller in (size // 2, size // 4, 8, 5):
        if 2 <= smaller < size:
            g = dict(program.graph, size=smaller)
            yield Program(graph=g, seed=program.seed, ops=[dict(o) for o in program.ops])
    if program.graph["weighted"]:
        g = dict(program.graph, weighted=False)
        yield Program(graph=g, seed=program.seed, ops=[dict(o) for o in program.ops])


def program_candidates(program: Program) -> Iterator[Program]:
    """Smaller differential programs, most aggressive first."""
    # 1. Drop ops, last first (dropping late ops never cascades).
    for i in reversed(range(len(program.ops))):
        cand = _drop_op(program, i)
        if cand is not None and cand.ops:
            yield cand
    # 2. Shrink the graph / simplify values.
    yield from _graph_candidates(program)
    # 3. Per-op simplification.
    for i in range(len(program.ops)):
        yield from _simplify_candidates(program, i)


def mutation_candidates(program: Program) -> Iterator[Program]:
    """Smaller mutation programs, most aggressive first.

    Mutation ops carry no slot references, so any subset of ops is a valid
    program; candidates drop ops, shrink the graph, and thin batches.
    """
    ops = program.ops

    def with_ops(new_ops) -> Program:
        return Program(
            graph=dict(program.graph), seed=program.seed,
            ops=[dict(o) for o in new_ops],
        )

    # Drop ops, last first (keeps earlier state-building mutations).
    if len(ops) > 1:
        for i in reversed(range(len(ops))):
            yield with_ops(ops[:i] + ops[i + 1:])
    yield from _graph_candidates(program)
    # Thin batches: drop deletes first (simpler failure class), then halve
    # inserts.
    for i, op in enumerate(ops):
        if op["op"] != "edge_batch":
            continue
        if int(op["deletes"]) > 0:
            cand = [dict(o) for o in ops]
            cand[i]["deletes"] = 0
            yield with_ops(cand)
        if int(op["inserts"]) > 1:
            cand = [dict(o) for o in ops]
            cand[i]["inserts"] = int(op["inserts"]) // 2
            yield with_ops(cand)


def shrink(
    program: Program,
    still_fails: Callable[[Program], bool],
    max_probes: int = 400,
    candidates: Callable[[Program], Iterator[Program]] = program_candidates,
) -> Program:
    """Greedily minimise ``program`` while ``still_fails`` holds.

    Each round probes ``candidates(current)`` in order and restarts from
    the first one that still fails; shrinking stops at a fixpoint or after
    ``max_probes`` probes.  ``still_fails`` must return True for the input
    program; candidates that raise are treated as not reproducing the
    failure and rejected.
    """
    probes = 0
    current = program
    changed = True
    while changed and probes < max_probes:
        changed = False
        for cand in candidates(current):
            if probes >= max_probes:
                break
            probes += 1
            try:
                fails = bool(still_fails(cand))
            except Exception:
                fails = False
            if fails:
                current = cand
                changed = True
                break
    return current


# ---------------------------------------------------------------------------
# Repro emission
# ---------------------------------------------------------------------------

_REPRO_TEMPLATE = '''"""Auto-generated regression repro (repro.testing.shrink).

Shrunk failing {kind}: {describe}
Original divergence: {divergence}

Reproduce / investigate with::

    PYTHONPATH=src python -m repro.testing.fuzz {flags}--replay {filename}

This test stays green once the underlying bug is fixed; keep it as a
permanent regression guard.
"""

from repro.testing.{module} import {runner}
from repro.testing.programs import Program

PROGRAM = {program_dict!r}


def test_shrunk_{kind_id}_{tag}():
    divergence = {runner}(Program.from_dict(PROGRAM))
    assert divergence is None, str(divergence)
'''


def write_repro(
    program: Program,
    divergence,
    directory: Path,
    streaming: bool = False,
) -> Path:
    """Write a standalone pytest repro; returns the file path.

    ``streaming`` marks a mutation program: the file is named
    ``test_shrunk_stream_<tag>.py`` and replays through
    :func:`repro.testing.streaming.run_streaming_differential`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tag = hashlib.sha1(program.to_json().encode()).hexdigest()[:10]
    kind = "mutation program" if streaming else "program"
    path = directory / f"test_shrunk_{'stream_' if streaming else ''}{tag}.py"
    path.write_text(
        _REPRO_TEMPLATE.format(
            kind=kind,
            kind_id=kind.replace(" ", "_"),
            describe=program.describe(),
            divergence=str(divergence),
            flags="--streaming " if streaming else "",
            filename=path.name,
            module="streaming" if streaming else "executor",
            runner="run_streaming_differential" if streaming else "run_differential",
            program_dict=program.to_dict(),
            tag=tag,
        )
    )
    return path
