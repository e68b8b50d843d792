"""GraphBLAS operations — the frontend API.

Each function mirrors one GraphBLAS C-API operation.  The common shape is::

    op(out, ...inputs..., mask=None, accum=None, desc=DEFAULT) -> out

- ``out`` is a :class:`~repro.core.vector.Vector` /
  :class:`~repro.core.matrix.Matrix` that is mutated in place (and returned
  for chaining), exactly like the ``w``/``C`` output argument of the C API;
- ``mask`` is an optional Vector/Matrix whose entries gate writes;
- ``accum`` is an optional :class:`~repro.core.operators.BinaryOp` merging
  the computed result into existing output entries;
- ``desc`` carries transpose / mask-complement / structural / replace flags.

The function validates shapes, resolves descriptor transposes against the
Matrix's cached column view, calls the active backend's kernel for the raw
result ``T``, and finishes with the shared write pipeline
(:mod:`repro.core.accumulate`).

Vector-valued operations route their backend call + merge through a *run
closure* handed to :mod:`repro.lazy.schedule`: under lazy evaluation the
closure is recorded on the tape (validation still happens eagerly, at call
time), otherwise it executes on the spot — the eager path is the identical
code minus the tape.  Matrix-valued operations stay eager.
"""

from __future__ import annotations

from typing import Any, Optional, Union

import numpy as np

from ..backends.dispatch import current_backend
from ..containers.csr import CSRMatrix
from ..exceptions import DimensionMismatchError, DomainMismatchError, InvalidValueError
from ..lazy import schedule as _lz
from ..types import BOOL, GrBType
from .accumulate import merge_matrix, merge_vector
from .descriptor import DEFAULT, Descriptor
from .matrix import Matrix
from .monoid import Monoid
from .operators import BinaryOp, IndexUnaryOp, UnaryOp
from .scalar import Scalar
from .semiring import PLUS_TIMES, Semiring
from .vector import Vector

__all__ = [
    "mxm",
    "mxv",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "apply",
    "select",
    "reduce",
    "reduce_to_vector",
    "transpose",
    "extract",
    "extract_submatrix",
    "extract_col",
    "extract_row",
    "kronecker",
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _mat_input(a: Matrix, transposed: bool) -> CSRMatrix:
    """A's container, honouring a descriptor transpose via the container memo."""
    return a.container.cached_transpose() if transposed else a.container


def _mask_cont(mask):
    if mask is None:
        return None
    return mask.container


def _check_mask_v(mask, size: int) -> None:
    """Eager mask-shape validation for deferred vector ops.

    The merge (where :func:`~repro.core.mask.check_mask_shape` runs) is
    deferred to flush time under the lazy layer; the user-facing dimension
    error must still fire at the call site.
    """
    if mask is not None and mask.size != size:
        raise DimensionMismatchError(
            "mask shape", expected=(size,), actual=(mask.size,)
        )


def _require(cond: bool, what: str, expected, actual) -> None:
    if not cond:
        raise DimensionMismatchError(what, expected=expected, actual=actual)


def _check_domain(op: UnaryOp, typ: GrBType) -> None:
    """Pre-flight ``GrB_DOMAIN_MISMATCH``: probe the op on one sample value.

    NumPy refuses some op/dtype pairings with a raw ``TypeError`` (e.g.
    ``np.negative`` on booleans).  Probing a scalar sample up front turns
    that into a uniform :class:`DomainMismatchError` from the shared
    frontend, before any backend kernel runs — so every backend observes
    the identical exception type.
    """
    try:
        with np.errstate(all="ignore"):
            op.func(typ.dtype.type(1))
    except TypeError as e:
        raise DomainMismatchError(
            f"operator {op.name} is not defined on domain {typ.name}: {e}"
        ) from e


def _clean(desc: Descriptor) -> Descriptor:
    """Descriptor passed to backends: transposes already resolved here."""
    if desc.transpose_a or desc.transpose_b:
        return desc.with_(transpose_a=False, transpose_b=False)
    return desc


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def mxm(
    c: Matrix,
    a: Matrix,
    b: Matrix,
    semiring: Semiring = PLUS_TIMES,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C<mask> accum= A ⊗ B`` — matrix–matrix product over a semiring."""
    ac = _mat_input(a, desc.transpose_a)
    bc = _mat_input(b, desc.transpose_b)
    _require(ac.ncols == bc.nrows, "inner dimension", ac.ncols, bc.nrows)
    _require(
        c.shape == (ac.nrows, bc.ncols), "output shape", (ac.nrows, bc.ncols), c.shape
    )
    t = current_backend().mxm(ac, bc, semiring, _mask_cont(mask), _clean(desc))
    return c._replace(merge_matrix(c.container, t, _mask_cont(mask), accum, desc))


def mxv(
    w: Vector,
    a: Matrix,
    u: Vector,
    semiring: Semiring = PLUS_TIMES,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    direction: str = "auto",
) -> Vector:
    """``w<mask> accum= A ⊗ u`` — matrix–vector product over a semiring.

    ``direction`` selects the SpMSpV strategy: "push" (frontier expansion),
    "pull" (row gather), or "auto" (cost heuristic) — the Fig. 5 knob.
    """
    ac = _mat_input(a, desc.transpose_a)
    _require(ac.ncols == u.size, "A.ncols vs u.size", ac.ncols, u.size)
    _require(w.size == ac.nrows, "output size", ac.nrows, w.size)
    _check_mask_v(mask, w.size)
    be = current_backend()
    cdesc = _clean(desc)

    def run(inp, params):
        t = be.mxv(
            inp["a"], inp["u"], semiring, inp.get("mask"), cdesc,
            params["direction"],
        )
        return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

    return _lz.emit(
        "mxv",
        run,
        {
            "a": ac,
            "u": _lz.arg(u),
            "mask": _lz.arg_mask(mask),
            "out": _lz.out_arg(w, mask, accum),
        },
        {"direction": direction, "semiring": semiring, "desc": cdesc},
        (w,),
    )


def vxm(
    w: Vector,
    u: Vector,
    a: Matrix,
    semiring: Semiring = PLUS_TIMES,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    direction: str = "auto",
) -> Vector:
    """``w<mask> accum= u ⊗ A`` — row-vector times matrix."""
    ac = _mat_input(a, desc.transpose_a)
    _require(ac.nrows == u.size, "u.size vs A.nrows", ac.nrows, u.size)
    _require(w.size == ac.ncols, "output size", ac.ncols, w.size)
    _check_mask_v(mask, w.size)
    be = current_backend()
    cdesc = _clean(desc)

    def run(inp, params):
        t = be.vxm(
            inp["u"], inp["a"], semiring, inp.get("mask"), cdesc,
            params["direction"],
        )
        return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

    return _lz.emit(
        "vxm",
        run,
        {
            "a": ac,
            "u": _lz.arg(u),
            "mask": _lz.arg_mask(mask),
            "out": _lz.out_arg(w, mask, accum),
        },
        {"direction": direction, "semiring": semiring, "desc": cdesc},
        (w,),
    )


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------


def _ewise(
    out,
    a,
    b,
    op: BinaryOp,
    mask,
    accum,
    desc: Descriptor,
    union: bool,
):
    be = current_backend()
    if isinstance(out, Vector):
        _require(a.size == b.size, "operand sizes", a.size, b.size)
        _require(out.size == a.size, "output size", a.size, out.size)
        _check_mask_v(mask, out.size)

        def run(inp, params):
            x, y = inp["a"], inp["b"]
            if params.get("sink"):
                x = be.sink_restrict(x, inp.get("mask"))
                y = be.sink_restrict(y, inp.get("mask"))
            kern = be.ewise_add_vector if union else be.ewise_mult_vector
            t = kern(x, y, op)
            return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

        return _lz.emit(
            "ewise_add_v" if union else "ewise_mult_v",
            run,
            {
                "a": _lz.arg(a),
                "b": _lz.arg(b),
                "mask": _lz.arg_mask(mask),
                "out": _lz.out_arg(out, mask, accum),
            },
            {
                "binop": op,
                "unop": None,
                "union": union,
                "trivial": mask is None and accum is None,
                "accum": accum,
                "desc": desc,
            },
            (out,),
        )
    _require(a.shape == b.shape, "operand shapes", a.shape, b.shape)
    ac = _mat_input(a, desc.transpose_a)
    bc = _mat_input(b, desc.transpose_b)
    _require(ac.shape == bc.shape, "operand shapes", ac.shape, bc.shape)
    _require(out.shape == ac.shape, "output shape", ac.shape, out.shape)
    kern = be.ewise_add_matrix if union else be.ewise_mult_matrix
    t = kern(ac, bc, op)
    return out._replace(merge_matrix(out.container, t, _mask_cont(mask), accum, desc))


def ewise_add(
    out,
    a,
    b,
    op: BinaryOp,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out<mask> accum= a (+) b`` — set-union elementwise (GrB_eWiseAdd).

    Positions present in only one operand pass that value through unchanged.
    Works on two Vectors or two Matrices (matching ``out``).
    """
    return _ewise(out, a, b, op, mask, accum, desc, union=True)


def ewise_mult(
    out,
    a,
    b,
    op: BinaryOp,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out<mask> accum= a (×) b`` — set-intersection elementwise."""
    return _ewise(out, a, b, op, mask, accum, desc, union=False)


# ---------------------------------------------------------------------------
# Apply / select
# ---------------------------------------------------------------------------


def _bind(op: BinaryOp, bind_first, bind_second) -> UnaryOp:
    """Curry a BinaryOp with a bound scalar into a UnaryOp."""
    if (bind_first is None) == (bind_second is None):
        raise InvalidValueError("exactly one of bind_first/bind_second required")
    if bind_first is not None:
        return UnaryOp(
            f"{op.name}_BIND1({bind_first!r})",
            lambda x: op.func(bind_first, x),
            (lambda t: BOOL) if op.bool_out else None,
        )
    return UnaryOp(
        f"{op.name}_BIND2({bind_second!r})",
        lambda x: op.func(x, bind_second),
        (lambda t: GrBType("BOOL", np.bool_, 0)) if op.bool_out else None,
    )


def apply(
    out,
    src,
    op: Union[UnaryOp, BinaryOp, IndexUnaryOp],
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
    bind_first: Any = None,
    bind_second: Any = None,
    thunk: Any = 0,
):
    """``out<mask> accum= op(src)`` — map over stored values.

    ``op`` may be a UnaryOp, a BinaryOp with one of ``bind_first`` /
    ``bind_second`` (``GrB_apply_BinaryOp1st/2nd``), or an IndexUnaryOp with
    ``thunk`` (``GrB_apply_IndexOp``).
    """
    be = current_backend()
    if isinstance(op, BinaryOp):
        op = _bind(op, bind_first, bind_second)
    if isinstance(op, UnaryOp):
        _check_domain(op, src.type)
    if isinstance(out, Vector):
        _require(out.size == src.size, "output size", src.size, out.size)
        _check_mask_v(mask, out.size)
        if isinstance(op, IndexUnaryOp):

            def run_iop(inp, params):
                t = be.apply_indexop_vector(inp["src"], op, thunk)
                return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

            return _lz.emit(
                "apply_iop_v",
                run_iop,
                {
                    "src": _lz.arg(src),
                    "mask": _lz.arg_mask(mask),
                    "out": _lz.out_arg(out, mask, accum),
                },
                {"iop": op, "desc": desc},
                (out,),
            )

        def run(inp, params):
            s = inp["src"]
            if params.get("sink"):
                s = be.sink_restrict(s, inp.get("mask"))
            t = be.apply_vector(s, op)
            return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

        return _lz.emit(
            "apply_v",
            run,
            {
                "src": _lz.arg(src),
                "mask": _lz.arg_mask(mask),
                "out": _lz.out_arg(out, mask, accum),
            },
            {"unop": op, "accum": accum, "desc": desc},
            (out,),
        )
    sc = _mat_input(src, desc.transpose_a)
    _require(out.shape == sc.shape, "output shape", sc.shape, out.shape)
    if isinstance(op, IndexUnaryOp):
        t = be.apply_indexop_matrix(sc, op, thunk)
    else:
        t = be.apply_matrix(sc, op)
    return out._replace(merge_matrix(out.container, t, _mask_cont(mask), accum, desc))


def select(
    out,
    src,
    op: IndexUnaryOp,
    thunk: Any = 0,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
):
    """``out<mask> accum= src where op(value, i, j, thunk)`` (GrB_select)."""
    be = current_backend()
    if isinstance(out, Vector):
        _require(out.size == src.size, "output size", src.size, out.size)
        _check_mask_v(mask, out.size)

        def run(inp, params):
            t = be.select_vector(inp["src"], op, thunk)
            return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

        return _lz.emit(
            "select_v",
            run,
            {
                "src": _lz.arg(src),
                "mask": _lz.arg_mask(mask),
                "out": _lz.out_arg(out, mask, accum),
            },
            {"iop": op, "desc": desc},
            (out,),
        )
    sc = _mat_input(src, desc.transpose_a)
    _require(out.shape == sc.shape, "output shape", sc.shape, out.shape)
    t = be.select_matrix(sc, op, thunk)
    return out._replace(merge_matrix(out.container, t, _mask_cont(mask), accum, desc))


# ---------------------------------------------------------------------------
# Reduce
# ---------------------------------------------------------------------------


def reduce(
    src,
    monoid: Monoid,
    accum: Optional[BinaryOp] = None,
    out: Optional[Scalar] = None,
) -> Any:
    """Fold all stored values of a Vector or Matrix to a scalar.

    With ``out`` (a :class:`Scalar`) and ``accum``, the fold is combined
    into the existing scalar value.  Returns the plain Python/NumPy value.
    """
    be = current_backend()
    if isinstance(src, Vector):

        def run(inp, params):
            return be.reduce_vector_scalar(inp["src"], monoid)

        val = _lz.emit_scalar(
            "reduce_v", run, {"src": _lz.arg(src)}, {"monoid": monoid}
        )
    else:
        val = be.reduce_matrix_scalar(src.container, monoid)
    if out is not None:
        if accum is not None and not out.is_empty:
            val = out.type.cast(accum(out.value, val))
        out.set(val)
        return out.value
    return val


def reduce_to_vector(
    w: Vector,
    a: Matrix,
    monoid: Monoid,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Vector:
    """``w<mask> accum= row-reduce(A)`` (transpose_a folds columns)."""
    ac = _mat_input(a, desc.transpose_a)
    _require(w.size == ac.nrows, "output size", ac.nrows, w.size)
    _check_mask_v(mask, w.size)
    be = current_backend()

    def run(inp, params):
        t = be.reduce_matrix_vector(inp["a"], monoid)
        return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

    return _lz.emit(
        "reduce_mv",
        run,
        {
            "a": ac,
            "mask": _lz.arg_mask(mask),
            "out": _lz.out_arg(w, mask, accum),
        },
        {"monoid": monoid, "desc": desc},
        (w,),
    )


# ---------------------------------------------------------------------------
# Transpose / kronecker
# ---------------------------------------------------------------------------


def transpose(
    c: Matrix,
    a: Matrix,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C<mask> accum= Aᵀ`` (with transpose_a set this writes A itself)."""
    # desc.transpose_a composes: transpose of the transpose is A.
    if desc.transpose_a:
        ac = a.container
    elif a.container.symmetric or a.container._aux.get("tcsr") is not None:
        # A itself (symmetric) or an already materialised memo: reuse it,
        # no backend work.
        ac = a.container.cached_transpose()
    else:
        ac = current_backend().transpose(a.container)
    _require(c.shape == ac.shape, "output shape", ac.shape, c.shape)
    # share=False: ``ac`` may be A's own container or its cached transpose;
    # the output must not alias either (a later in-place set_element on C
    # would otherwise corrupt A / A's cache).
    return c._replace(
        merge_matrix(c.container, ac, _mask_cont(mask), accum, desc, share=False)
    )


def kronecker(
    c: Matrix,
    a: Matrix,
    b: Matrix,
    op: BinaryOp,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C<mask> accum= A ⊗_kron B`` with ``op`` combining value pairs."""
    ac = _mat_input(a, desc.transpose_a)
    bc = _mat_input(b, desc.transpose_b)
    shape = (ac.nrows * bc.nrows, ac.ncols * bc.ncols)
    _require(c.shape == shape, "output shape", shape, c.shape)
    t = current_backend().kronecker(ac, bc, op)
    return c._replace(merge_matrix(c.container, t, _mask_cont(mask), accum, desc))


# ---------------------------------------------------------------------------
# Extract
# ---------------------------------------------------------------------------


def _index_array(idx, dim: int) -> np.ndarray:
    """Resolve an index spec: None = all, else validated int array."""
    if idx is None:
        return np.arange(dim, dtype=np.int64)
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= dim):
        from ..exceptions import IndexOutOfBoundsError

        raise IndexOutOfBoundsError(f"index outside [0, {dim})")
    return arr


def extract(
    w: Vector,
    u: Vector,
    indices=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Vector:
    """``w<mask> accum= u(indices)`` (GrB_Vector_extract)."""
    idx = _index_array(indices, u.size)
    _require(w.size == idx.size, "output size", idx.size, w.size)
    _check_mask_v(mask, w.size)
    be = current_backend()

    def run(inp, params):
        t = be.extract_vector(inp["u"], idx)
        return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

    return _lz.emit(
        "extract_v",
        run,
        {
            "u": _lz.arg(u),
            "mask": _lz.arg_mask(mask),
            "out": _lz.out_arg(w, mask, accum),
        },
        {"desc": desc},
        (w,),
    )


def extract_submatrix(
    c: Matrix,
    a: Matrix,
    rows=None,
    cols=None,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Matrix:
    """``C<mask> accum= A(rows, cols)`` (GrB_Matrix_extract)."""
    ac = _mat_input(a, desc.transpose_a)
    r = _index_array(rows, ac.nrows)
    s = _index_array(cols, ac.ncols)
    _require(c.shape == (r.size, s.size), "output shape", (r.size, s.size), c.shape)
    t = current_backend().extract_matrix(ac, r, s)
    return c._replace(merge_matrix(c.container, t, _mask_cont(mask), accum, desc))


def extract_col(
    w: Vector,
    a: Matrix,
    j: int,
    rows=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Vector:
    """``w<mask> accum= A(rows, j)`` — one column (GrB_Col_extract).

    With ``desc.transpose_a`` this extracts row ``j`` instead.
    """
    if desc.transpose_a:
        src = a.container
    else:
        src = a.container.cached_transpose()  # rows of Aᵀ are columns of A
    from ..containers.convert import matrix_row_as_vector

    col = matrix_row_as_vector(src, j)
    idx = _index_array(rows, col.size)
    _require(w.size == idx.size, "output size", idx.size, w.size)
    _check_mask_v(mask, w.size)
    be = current_backend()

    def run(inp, params):
        t = be.extract_vector(inp["u"], idx)
        return merge_vector(inp["out"], t, inp.get("mask"), accum, desc)

    return _lz.emit(
        "extract_v",
        run,
        {
            "u": col,
            "mask": _lz.arg_mask(mask),
            "out": _lz.out_arg(w, mask, accum),
        },
        {"desc": desc},
        (w,),
    )


def extract_row(
    w: Vector,
    a: Matrix,
    i: int,
    cols=None,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT,
) -> Vector:
    """``w<mask> accum= A(i, cols)`` — one row (convenience wrapper)."""
    return extract_col(w, a, i, rows=cols, mask=mask, accum=accum, desc=desc.with_(transpose_a=not desc.transpose_a))
