"""Differential execution: replay one program on every backend and diff.

A *backend spec* is a string naming one execution configuration:
``<backend>[:P:splitter][:suffix...]``.

- ``"reference"``, ``"cpu"`` — the host backends;
- ``"cuda_sim"`` — the simulated GPU under the default policy;
- ``"multi_sim:P:splitter"`` — the partitioned backend with ``P`` devices
  and the named block-row splitter, e.g. ``"multi_sim:4:degree_balanced"``.

Suffixes, in any order, set fields of the optimisation policy
(:mod:`repro.policy`, which owns their parse) for the run:

- ``noreuse`` — loop capture off, so every op launches on its own
  (device residency and the containers' version-stamped memos of Aᵀ and
  degrees have no switch and stay on);
- ``lanes=<mode>`` — the load-balancing lane policy pinned to ``mode`` (a
  lane name, ``auto``, or ``off``), e.g. ``"cuda_sim:lanes=merge"``;
- ``lazy=<mode>`` — the lazy evaluation mode; both simulated backends
  record lazily by default, so ``"cuda_sim:lazy=off"`` and
  ``"multi_sim:2:equal_rows:lazy=off"`` keep the eager paths covered.

Every policy field is pure scheduling, so results must stay bit-identical
under any suffix.  An unknown backend, suffix or value raises
``ValueError``.

:func:`run_differential` replays the program on the reference backend, then
on every other spec, comparing op-by-op under the shared equivalence policy
(bit-exact for selection semirings, tolerance-bounded for float sums — see
:mod:`repro.testing.equivalence`).  Exceptions are part of the observable
behaviour: an op that raises is recorded as ``("raised", ExcType)`` and
must raise the *same* exception type everywhere.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends.dispatch import get_backend, use_backend
from ..core import operations as ops
from ..core.assign import assign as assign_op
from ..core.descriptor import Descriptor
from ..core.matrix import Matrix
from ..core.vector import Vector
from ..exceptions import GraphBLASError
from ..gpu.device import reset_device
from ..policy import parse_suffixes, policy
from ..types import FP64
from .equivalence import describe_mismatch, same
from .programs import (
    Program,
    annotate_exactness,
    build_env,
    desc_from_names,
    lookup_accum,
    lookup_ewise_op,
    lookup_iop,
    lookup_monoid,
    lookup_semiring,
    lookup_unary,
)

__all__ = [
    "DEFAULT_SPECS",
    "SMOKE_SPECS",
    "Divergence",
    "backend_session",
    "execute",
    "run_differential",
    "backend_specs",
]

SMOKE_SPECS = (
    "reference",
    "cpu",
    "cuda_sim",
    "cuda_sim:lazy=off",
    "multi_sim:2:equal_rows:lazy=off",
)

DEFAULT_SPECS = (
    "reference",
    "cpu",
    "cuda_sim",
    "cuda_sim:noreuse",
    "cuda_sim:lazy=off",
    "cuda_sim:lanes=scalar",
    "cuda_sim:lanes=merge",
    "multi_sim:1:equal_rows",
    "multi_sim:2:equal_rows",
    "multi_sim:2:equal_rows:lazy=off",
    "multi_sim:2:degree_balanced",
    "multi_sim:4:equal_rows",
    "multi_sim:4:degree_balanced",
)


def backend_specs(full: bool = True) -> Tuple[str, ...]:
    return DEFAULT_SPECS if full else SMOKE_SPECS


@dataclass
class Divergence:
    """One observed cross-backend disagreement."""

    backend: str
    op_index: int
    op: str
    detail: str

    def __str__(self) -> str:
        return (
            f"backend {self.backend!r} diverged at op #{self.op_index} "
            f"({self.op}): {self.detail}"
        )


# ---------------------------------------------------------------------------
# Single-backend execution
# ---------------------------------------------------------------------------


def _resolve_backend(spec: str) -> Tuple[Any, Dict[str, Any]]:
    """(backend object, policy overrides) for one spec string."""
    name, *suffixes = spec.split(":")
    if name == "multi_sim":
        if len(suffixes) < 2:
            raise ValueError(f"backend spec {spec!r}: expected multi_sim:P:splitter")
        nparts, splitter, *suffixes = suffixes
        overrides = parse_suffixes(suffixes)
        backend = get_backend(name).configure(nparts=int(nparts), splitter=splitter)
        return backend, overrides
    if name not in ("reference", "cpu", "cuda_sim"):
        raise ValueError(f"unknown backend spec {spec!r}")
    return get_backend(name), parse_suffixes(suffixes)


def _snapshot(result: Any) -> Any:
    """A host-side, immutable copy of one op result."""
    if isinstance(result, Vector):
        return result.dup()
    if isinstance(result, Matrix):
        return result.dup()
    return result


def _run_op(spec, env) -> Any:
    """Execute one OpSpec against the environment; returns the result."""
    n = env.n
    op = spec["op"]
    desc = desc_from_names(spec.get("desc"))
    accum = lookup_accum(spec.get("accum"))
    mask = None
    mref = spec.get("mask")
    if mref is not None:
        mask = env.mask_vectors[mref[1]] if mref[0] == "mv" else env.mask_matrix

    def out_vector() -> Vector:
        into = spec.get("into")
        if into is not None:
            return env.vectors[into].dup()
        return Vector.sparse(FP64, n)

    def out_matrix() -> Matrix:
        into = spec.get("into")
        if into is not None:
            return env.matrices[into].dup()
        return Matrix.sparse(FP64, n, n)

    if op == "mxv":
        w = out_vector()
        r = ops.mxv(
            w, env.matrices[spec["a"]], env.vectors[spec["u"]],
            lookup_semiring(spec["semiring"]), mask=mask, accum=accum,
            desc=desc, direction=spec.get("direction", "auto"),
        )
        env.vectors.append(r)
        return r
    if op == "vxm":
        w = out_vector()
        r = ops.vxm(
            w, env.vectors[spec["u"]], env.matrices[spec["a"]],
            lookup_semiring(spec["semiring"]), mask=mask, accum=accum,
            desc=desc, direction=spec.get("direction", "auto"),
        )
        env.vectors.append(r)
        return r
    if op == "mxm":
        c = out_matrix()
        r = ops.mxm(
            c, env.matrices[spec["a"]], env.matrices[spec["b"]],
            lookup_semiring(spec["semiring"]), mask=mask, accum=accum, desc=desc,
        )
        env.matrices.append(r)
        return r
    if op in ("ewise_add", "ewise_mult"):
        fn = ops.ewise_add if op == "ewise_add" else ops.ewise_mult
        binop = lookup_ewise_op(spec["binop"])
        if spec["space"] == "v":
            w = out_vector()
            r = fn(w, env.vectors[spec["x"]], env.vectors[spec["y"]], binop,
                   mask=mask, accum=accum, desc=desc)
            env.vectors.append(r)
        else:
            c = out_matrix()
            r = fn(c, env.matrices[spec["x"]], env.matrices[spec["y"]], binop,
                   mask=mask, accum=accum, desc=desc)
            env.matrices.append(r)
        return r
    if op == "apply":
        unary = lookup_unary(spec["unary"])
        if spec["space"] == "v":
            w = out_vector()
            r = ops.apply(w, env.vectors[spec["src"]], unary,
                          mask=mask, accum=accum, desc=desc)
            env.vectors.append(r)
        else:
            c = out_matrix()
            r = ops.apply(c, env.matrices[spec["src"]], unary,
                          mask=mask, accum=accum, desc=desc)
            env.matrices.append(r)
        return r
    if op == "select":
        iop = lookup_iop(spec["iop"])
        thunk = spec.get("thunk", 0)
        if spec["space"] == "v":
            w = out_vector()
            r = ops.select(w, env.vectors[spec["src"]], iop, thunk=thunk,
                           mask=mask, accum=accum, desc=desc)
            env.vectors.append(r)
        else:
            c = out_matrix()
            r = ops.select(c, env.matrices[spec["src"]], iop, thunk=thunk,
                           mask=mask, accum=accum, desc=desc)
            env.matrices.append(r)
        return r
    if op == "reduce":
        src = env.vectors[spec["src"]] if spec["space"] == "v" else env.matrices[spec["src"]]
        val = ops.reduce(src, lookup_monoid(spec["monoid"]))
        env.scalars.append(val)
        return val
    if op == "reduce_to_vector":
        w = out_vector()
        r = ops.reduce_to_vector(w, env.matrices[spec["src"]],
                                 lookup_monoid(spec["monoid"]),
                                 mask=mask, accum=accum, desc=desc)
        env.vectors.append(r)
        return r
    if op == "extract":
        rng = np.random.default_rng(spec["idx_seed"])
        if spec["space"] == "v":
            idx = rng.integers(0, n, n)
            w = out_vector()
            r = ops.extract(w, env.vectors[spec["src"]], idx,
                            mask=mask, accum=accum, desc=desc)
            env.vectors.append(r)
        else:
            rows = rng.integers(0, n, n)
            cols = rng.integers(0, n, n)
            c = out_matrix()
            r = ops.extract_submatrix(c, env.matrices[spec["src"]], rows, cols,
                                      mask=mask, accum=accum, desc=desc)
            env.matrices.append(r)
        return r
    if op == "assign":
        rng = np.random.default_rng(spec["idx_seed"])
        idx = rng.permutation(n)
        dst = env.vectors[spec["dst"]].dup()
        r = assign_op(dst, env.vectors[spec["src"]], idx,
                      mask=mask, accum=accum, desc=desc)
        env.vectors.append(r)
        return r
    if op == "transpose":
        c = out_matrix()
        r = ops.transpose(c, env.matrices[spec["a"]], mask=mask, accum=accum, desc=desc)
        env.matrices.append(r)
        return r
    # Invalid-program mode: each op below must raise a specific
    # GraphBLASError subclass (caught by execute() and snapshotted).
    if op.startswith("bad_"):
        r = _run_invalid_op(op, env)
        # Reached only if the op failed to raise (itself a divergence the
        # comparison will flag); keep slot numbering aligned regardless.
        env.vectors.append(Vector.sparse(FP64, n))
        return r
    raise ValueError(f"unknown op {op!r}")


def _run_invalid_op(op, env):
    """Invalid-mode ops: each must raise a specific GraphBLASError."""
    n = env.n
    if op == "bad_mxv_dims":
        from ..core.semiring import PLUS_TIMES

        return ops.mxv(
            Vector.sparse(FP64, n), env.matrices[0],
            Vector.sparse(FP64, n + 3), PLUS_TIMES,
        )
    if op == "bad_apply_domain":
        from ..core.operators import AINV

        return ops.apply(
            Vector.sparse(env.mask_vectors[0].type, n), env.mask_vectors[0], AINV
        )
    if op == "bad_transpose_desc":
        from ..core.semiring import PLUS_TIMES

        rect = Matrix.sparse(FP64, n, n + 1)
        return ops.mxv(
            Vector.sparse(FP64, n), rect, env.vectors[0], PLUS_TIMES,
            desc=Descriptor(transpose_a=True),
        )
    if op == "bad_extract_oob":
        return ops.extract(
            Vector.sparse(FP64, 2), env.vectors[0], np.array([0, n + 5])
        )
    raise ValueError(f"unknown invalid op {op!r}")


def execute(
    program: Program,
    spec: str = "reference",
    perm: Optional[np.ndarray] = None,
) -> List[Any]:
    """Replay ``program`` under one backend spec; one snapshot per op.

    An op that raises a :class:`GraphBLASError` records ``("raised",
    type-name)`` and the program continues with that result slot holding
    an empty placeholder, so later ops still execute identically on every
    backend (exception *types* are part of the differential contract).
    """
    env = build_env(program, perm=perm)
    snapshots: List[Any] = []
    with backend_session(spec):
        for opspec in program.ops:
            try:
                result = _run_op(opspec, env)
            except GraphBLASError as e:
                snapshots.append(("raised", type(e).__name__))
                _append_placeholder(opspec, env)
                continue
            snapshots.append(_snapshot(result))
    return snapshots


@contextmanager
def backend_session(spec: str):
    """Enter one backend spec end-to-end: resolve the backend, reset
    device state, apply the suffixes' policy, and activate the backend for
    the ``with`` body.

    This is the single definition of what a spec string *means*; the
    program executor above and the streaming mutation runner
    (:mod:`repro.testing.streaming`) both run inside it.
    """
    backend, overrides = _resolve_backend(spec)
    if backend.name == "multi_sim":
        backend.reset()
    elif backend.name == "cuda_sim":
        backend.evict_all()
        reset_device()
    with policy(**overrides), use_backend(backend):
        yield backend


def _append_placeholder(spec, env) -> None:
    """Keep slot numbering aligned after an op failed."""
    op = spec["op"]
    n = env.n
    if op in ("mxv", "vxm", "reduce_to_vector", "assign"):
        env.vectors.append(Vector.sparse(FP64, n))
    elif op in ("mxm", "transpose"):
        env.matrices.append(Matrix.sparse(FP64, n, n))
    elif op in ("ewise_add", "ewise_mult", "apply", "select", "extract"):
        if spec["space"] == "v":
            env.vectors.append(Vector.sparse(FP64, n))
        else:
            env.matrices.append(Matrix.sparse(FP64, n, n))
    elif op == "reduce":
        env.scalars.append(None)
    elif op.startswith("bad_"):
        env.vectors.append(Vector.sparse(FP64, n))


# ---------------------------------------------------------------------------
# Differential comparison
# ---------------------------------------------------------------------------


def _compare(got, expected, exact: bool) -> Optional[str]:
    if isinstance(expected, tuple) and expected and expected[0] == "raised":
        if got != expected:
            return f"expected {expected[1]} to be raised, got {got!r}"
        return None
    if isinstance(got, tuple) and got and got[0] == "raised":
        return f"unexpectedly raised {got[1]}"
    if not same(got, expected, exact=exact):
        return describe_mismatch(got, expected)
    return None


def run_differential(
    program: Program,
    specs: Optional[Tuple[str, ...]] = None,
) -> Optional[Divergence]:
    """Replay on every spec and return the first divergence (or None).

    The reference backend's snapshots are the oracle; each other spec is
    compared per-op with the statically derived exactness flag.
    """
    specs = tuple(specs or DEFAULT_SPECS)
    exact_flags = annotate_exactness(program)
    oracle = execute(program, "reference")
    for spec in specs:
        if spec == "reference":
            continue
        got = execute(program, spec)
        for i, (g, e) in enumerate(zip(got, oracle)):
            detail = _compare(g, e, exact_flags[i])
            if detail is not None:
                return Divergence(spec, i, program.ops[i]["op"], detail)
    return None
