"""Fused multi-op frontends.

GraphBLAS programs chain cheap memory-bound operations — BFS's loop body is
``assign; masked vxm``, PageRank's convergence check is ``ewise_add; apply``
— and on a real GPU each op is a kernel launch plus a full round trip of the
intermediate through device memory.  These helpers expose the chain as one
frontend call with a backend hook: backends that cannot fuse inherit a
composition default (bit-identical to the separate ops), while the
simulated CUDA backend lowers each to a single fused kernel launch, which
is where the launch-count and modeled-time wins in
:mod:`repro.gpu.profiler` output come from.
"""

from __future__ import annotations

from typing import Optional

from ..backends.dispatch import current_backend
from ..exceptions import DimensionMismatchError, InvalidValueError
from ..lazy import schedule as _lz
from .accumulate import merge_vector
from .descriptor import DEFAULT, Descriptor
from .matrix import Matrix
from .operators import BinaryOp, UnaryOp
from .semiring import Semiring
from .vector import Vector

__all__ = ["ewise_apply", "frontier_step"]


def _require(cond: bool, what: str, expected, actual) -> None:
    if not cond:
        raise DimensionMismatchError(what, expected=expected, actual=actual)


def ewise_apply(
    out,
    a,
    b,
    binop: BinaryOp,
    unop: UnaryOp,
    union: bool = True,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out<mask> accum= unop(a (∪|∩) b)`` — elementwise combine + map, fused.

    Vectors only (a Matrix ``out`` raises :class:`InvalidValueError`).
    Equivalent to ``ewise_add``/``ewise_mult`` into ``out`` followed by
    ``apply(out, out, unop)`` with the same mask/accum/desc on both — the
    common "difference then abs" convergence idiom.
    """
    be = current_backend()
    if isinstance(out, Vector):
        _require(a.size == b.size, "ewise input sizes", a.size, b.size)
        _require(out.size == a.size, "output size", a.size, out.size)
        if mask is not None:
            _require(mask.size == out.size, "mask shape", (out.size,), (mask.size,))

        def run(inp, params):
            x, y = inp["a"], inp["b"]
            if params.get("sink"):
                x = be.sink_restrict(x, inp.get("mask"))
                y = be.sink_restrict(y, inp.get("mask"))
            t = be.ewise_apply_vector(x, y, binop, unop, union)
            return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

        return _lz.emit(
            "ewise_apply_v",
            run,
            {
                "a": _lz.arg(a),
                "b": _lz.arg(b),
                "mask": _lz.arg_mask(mask),
                "out": _lz.out_arg(out, mask, accum),
            },
            {
                "binop": binop,
                "unop": unop,
                "union": union,
                "trivial": mask is None and accum is None,
                "accum": accum,
                "desc": desc,
            },
            (out,),
        )
    raise InvalidValueError(
        f"ewise_apply writes a Vector output, got {type(out).__name__}"
    )


def frontier_step(
    levels: Vector,
    frontier: Vector,
    g: Matrix,
    value,
    semiring: Semiring,
    desc: Descriptor,
    direction: str = "auto",
):
    """One fused BFS expansion step, mutating ``levels`` and ``frontier``.

    Semantically ``assign_scalar(levels, value, indices=frontier.indices)``
    then ``vxm(frontier, frontier, g, semiring, mask=levels, desc=desc)`` —
    but dispatched as a single backend call so a fusing backend can run the
    level write, the masked product, and the frontier merge in one kernel.
    """
    _require(g.nrows == g.ncols, "square adjacency", g.nrows, g.ncols)
    _require(frontier.size == g.nrows, "frontier size", g.nrows, frontier.size)
    _require(levels.size == g.nrows, "levels size", g.nrows, levels.size)
    be = current_backend()

    def run(inp, params):
        return be.frontier_step(
            inp["levels"],
            inp["frontier"],
            inp["a"],
            value,
            semiring,
            desc,
            params["direction"],
        )

    _lz.emit(
        "frontier_step",
        run,
        {
            "levels": _lz.arg(levels),
            "frontier": _lz.arg(frontier),
            "a": g.container,
        },
        {"direction": direction, "semiring": semiring, "desc": desc},
        (levels, frontier),
    )
    return levels, frontier
