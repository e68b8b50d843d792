"""The write pipeline on the lazy tape: one recorder for vector ops.

Every GraphBLAS operation computes a raw result ``T`` and writes it back
through the same ``C<M> ⊙= T`` mask/accumulate/replace rule
(:func:`repro.core.accumulate.merge_vector`).  A vector-valued frontend op
hands :func:`emit_write` its validated inputs, its parameters, its
``(out, mask, accum, desc)`` and its *kernel* — ``kernel(inputs, params)
-> T`` — and this module alone does the rest:

- checks the mask size at the call, before anything is recorded;
- records the mask edge and the out edge (:func:`_out_arg`);
- marks the write *trivial* (no mask, no accumulator) for fusion;
- at run time restricts the inputs the op declared *sinkable* when the
  sink pass marked the node, runs the kernel, and merges ``T`` into the
  output.

Fusion rewrites swap a node's kernel (:meth:`Write.swap`) and keep its
write pipeline; the sink pass reads a node's declared sinkable inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..backends.dispatch import current_backend
from ..core.accumulate import merge_vector
from ..exceptions import DimensionMismatchError
from .ir import RunFn
from .schedule import arg, arg_mask, emit

__all__ = ["Write", "check_mask", "emit_write"]


class Write:
    """The run of a write node: sunk inputs → kernel → ``merge_vector``.

    ``kernel`` returns ``T``, or ``(T, scalar)`` for a fused scalar node
    (the merged output is then returned beside the scalar).  ``sinkable``
    names the inputs the sink pass may restrict to the mask's stored
    indices, restricted in that order.
    """

    __slots__ = ("kernel", "sinkable", "accum", "desc", "backend", "trivial")

    def __init__(
        self,
        kernel: RunFn,
        sinkable: Tuple[str, ...],
        accum: Any,
        desc: Any,
        backend: Any,
        trivial: bool,
    ) -> None:
        self.kernel = kernel
        self.sinkable = sinkable
        self.accum = accum
        self.desc = desc
        self.backend = backend
        # No mask and no accumulator: the merged output *is* T.
        self.trivial = trivial

    def swap(self, kernel: RunFn, sinkable: Tuple[str, ...] = ()) -> "Write":
        """The same write pipeline around another kernel (fusion rewrites)."""
        return Write(
            kernel, sinkable, self.accum, self.desc, self.backend, self.trivial
        )

    def __call__(self, inp: Dict[str, Any], params: Dict[str, Any]) -> Any:
        mask = inp["mask"]
        if params.get("sink"):
            inp = dict(inp)
            for name in self.sinkable:
                inp[name] = self.backend.sink_restrict(inp[name], mask)
        r = self.kernel(inp, params)
        t, *scalar = r if isinstance(r, tuple) else (r,)
        merged = merge_vector(inp["out"], t, mask, self.accum, self.desc)
        return (merged, *scalar) if scalar else merged


def check_mask(mask: Any, size: int) -> None:
    """Mask-size check at the call site of a deferred vector write.

    The merge (where :func:`~repro.core.mask.check_mask_shape` runs) is
    deferred to flush time under the lazy layer; the user-facing dimension
    error must still fire at the call, with nothing recorded.
    """
    if mask is not None and mask.size != size:
        raise DimensionMismatchError(
            "mask shape", expected=(size,), actual=(mask.size,)
        )


def _out_arg(v: Any, mask: Any, accum: Any) -> Any:
    """The recorded form of an op's output operand.

    With no mask and no accumulator the merge pipeline's result is
    independent of the output's prior *values* (a trivial merge replaces
    them wholesale), so the current concrete container is recorded instead
    of the pending value — severing the dependence edge on the previous
    producer is what lets dead-materialization elimination drop overwritten
    temporaries.  Size and type are the only properties the merge reads,
    and both are invariant under replacement.
    """
    if mask is None and accum is None:
        return v._container
    return arg(v)


def emit_write(
    op: str,
    kernel: RunFn,
    inputs: Dict[str, Any],
    params: Dict[str, Any],
    out: Any,
    mask: Any,
    accum: Any,
    desc: Any,
    sinkable: Tuple[str, ...] = (),
) -> Any:
    """Record (or run now) ``out<mask> accum= kernel(inputs)``; returns ``out``."""
    check_mask(mask, out.size)
    write = Write(
        kernel, sinkable, accum, desc, current_backend(),
        mask is None and accum is None,
    )
    inputs = {**inputs, "mask": arg_mask(mask), "out": _out_arg(out, mask, accum)}
    return emit(op, write, inputs, params, (out,))
