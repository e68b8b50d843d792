"""Optimizer passes over one flushed lazy tape.

All passes are linear walks over the program-ordered node list produced by
:func:`repro.lazy.schedule._flush` (after dead-materialization liveness):

- :func:`fuse` — peephole fusion of adjacent producer/consumer pairs into
  single fused kernels (ewise→reduce, constant-fill→ewise);
- :func:`sink` — mask sinking: restrict a masked op's declared sinkable
  inputs to the mask's stored indices before the kernel instead of
  filtering after it;
- :func:`choose_directions` — loop-level push/pull selection for traversal
  products, replacing the per-op ``choose_direction`` heuristic where the
  whole-tape view proves push cannot lose;
- :func:`register_iso_hints` — detect iso-valued (constant) matrix operands
  once per version and register transfer-demotion hints with the device, so
  the upload charges indices only.

Every pass is a pure schedule decision: the values produced are bitwise
those of the eager pipeline (``policy(lazy="off")``), only launches, transfers,
and materializations change.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from .ir import LazyValue, Node
from .write import Write

__all__ = ["choose_directions", "fuse", "register_iso_hints", "sink"]

_EWISE_OPS = ("ewise_add_v", "ewise_mult_v", "ewise_apply_v")
# Idempotent/selective add-monoids of traversal semirings: products with
# these never benefit from pull's dense sweep once the frontier is sparse,
# and push avoids materialising the transpose entirely.
_PUSH_MONOIDS = frozenset(
    {"LOR_MONOID", "LAND_MONOID", "MIN_MONOID", "MAX_MONOID", "ANY_MONOID"}
)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def fuse(nodes: List[Node]) -> List[Node]:
    """Fuse adjacent producer/consumer pairs; returns the new node list.

    The consumer node is rewritten in place, taking over the producer's
    outputs where the fused kernel still produces them; the producer is
    dropped from the list and never executes.
    """
    out: List[Node] = []
    i = 0
    while i < len(nodes):
        p = nodes[i]
        c = nodes[i + 1] if i + 1 < len(nodes) else None
        if c is not None and (
            _fuse_ewise_reduce(p, c) or _fuse_fill_ewise(p, c, nodes[i + 2 :])
        ):
            out.append(c)
            i += 2
            continue
        out.append(p)
        i += 1
    return out


def _fuse_ewise_reduce(p: Node, c: Node) -> bool:
    """ewise(+apply) → scalar reduce: one ``ewise_reduce_fused_v`` launch.

    The elementwise result still materializes (the producer's write
    pipeline merges it and the fused run returns it alongside the scalar),
    so later consumers and a live owning handle are always satisfied — no
    extra legality conditions beyond adjacency.  Requires a trivial merge
    on the producer: with a mask or accumulator the reduce would see the
    merged container, not the raw result.  The fused node's outputs are the
    producer's, then the reduce's scalar.
    """
    if p.op not in _EWISE_OPS or not p.run.trivial or c.op != "reduce_v":
        return False
    if c.inputs.get("src") is not p.outputs[0]:
        return False
    be = c.backend
    binop = p.params["binop"]
    unop = p.params.get("unop")
    union = bool(p.params.get("union", True))
    monoid = c.params["monoid"]

    def kernel(inp: Dict[str, Any], params: Dict[str, Any]) -> Any:
        return be.ewise_reduce_vector(
            inp["a"], inp["b"], binop, unop, union, monoid, inp["out"].type
        )

    c.op = "ewise_reduce_fused_v"
    c.run = p.run.swap(kernel)
    c.inputs = p.inputs
    c.params = {"binop": binop, "unop": unop, "union": union, "monoid": monoid}
    c.outputs = p.outputs + c.outputs
    return True


def _fuse_fill_ewise(p: Node, c: Node, rest: List[Node]) -> bool:
    """Constant fill feeding a union ewise: one ``fill_ewise_fused_v``.

    The dense fill is generated in registers inside the consumer's kernel,
    so the producer's scatter-assign launch *and* its container disappear.
    Legal only when the fill is observable nowhere else: its handle has
    moved on (the ewise overwrote it), the ewise does not merge into it (a
    masked or accumulated write into the fill's own handle), and no later
    node consumes it.
    """
    if p.op != "assign_scalar_v" or not p.params.get("fill"):
        return False
    if c.op != "ewise_add_v":
        return False
    lv = p.outputs[0]
    fill_first = c.inputs.get("a") is lv
    if not fill_first and c.inputs.get("b") is not lv:
        return False
    other_key = "b" if fill_first else "a"
    other = c.inputs.get(other_key)
    if other is lv or c.inputs["out"] is lv:
        return False
    out_in = p.inputs.get("out")
    if isinstance(out_in, LazyValue) or out_in is None:
        return False
    if lv.handle() is not None:
        return False
    for n in rest:
        for v in n.inputs.values():
            if v is lv:
                return False
    be = c.backend
    value = p.params["value"]
    size = p.params["n"]
    fill_type = out_in.type
    binop = c.params["binop"]

    def kernel(inp: Dict[str, Any], params: Dict[str, Any]) -> Any:
        return be.fill_ewise_vector(
            value, size, fill_type, inp["other"], binop, fill_first
        )

    c.op = "fill_ewise_fused_v"
    c.run = c.run.swap(kernel, ("other",))
    c.inputs = {"other": other, "mask": c.inputs["mask"], "out": c.inputs["out"]}
    c.params = {"binop": binop, "accum": c.params["accum"], "desc": c.params["desc"]}
    return True


# ---------------------------------------------------------------------------
# Mask sinking
# ---------------------------------------------------------------------------


def sink(nodes: List[Node]) -> None:
    """Mark masked write nodes with sinkable inputs for pre-restriction.

    A mask's *stored* index set is a superset of its true positions, and
    the downstream merge re-filters exactly — so restricting the inputs to
    those indices first is value-safe for any non-complemented mask
    (structural or valued), with any accumulator or replace setting.  A
    node's write pipeline (:class:`~repro.lazy.write.Write`) declares
    which inputs may be restricted; it consults ``params["sink"]`` and
    calls the backend's ``sink_restrict`` on each of them.
    """
    for n in nodes:
        w = n.run
        if not isinstance(w, Write) or not w.sinkable:
            continue
        if n.inputs.get("mask") is None or w.desc.complement_mask:
            continue
        n.params["sink"] = True


# ---------------------------------------------------------------------------
# Loop-level push/pull selection
# ---------------------------------------------------------------------------


def choose_directions(nodes: List[Node]) -> None:
    """Force push for traversal-shaped products over sparse matrices.

    The per-op ``choose_direction`` heuristic costs push vs pull from the
    current frontier alone; seen at tape level, a complement/structural
    masked product under an idempotent add-monoid over a sparse matrix
    (avg degree ≤ 32) is a traversal step where pull additionally pays the
    transpose materialization.  Only row-major-native orientations are
    forced (``vxm`` and the fused frontier step, where push walks the CSR
    rows directly); for ``mxv`` push would itself require the transpose,
    so that choice stays with the runtime heuristic.  A symmetric matrix
    is its own transpose, so pull pays nothing extra there and the choice
    also stays with the runtime heuristic (exact per-hop degree sums, as
    in eager mode).  Push and pull are value-identical — this is purely a
    launch/transfer decision.
    """
    for n in nodes:
        if n.op not in ("vxm", "frontier_step"):
            continue
        if n.params.get("direction") != "auto":
            continue
        sr = n.params.get("semiring")
        if sr is None or sr.add.name not in _PUSH_MONOIDS:
            continue
        desc = n.params.get("desc")
        frontier_style = n.op == "frontier_step" or (
            n.inputs.get("mask") is not None
            and desc is not None
            and (desc.complement_mask or desc.structural_mask)
        )
        if not frontier_style:
            continue
        a = n.inputs.get("a")
        if a is None or isinstance(a, LazyValue) or a.symmetric:
            continue
        if a.nvals > 32 * max(a.nrows, 1):
            continue
        n.params["direction"] = "push"


# ---------------------------------------------------------------------------
# Iso-value transfer demotion hints
# ---------------------------------------------------------------------------


def register_iso_hints(nodes: List[Node], devices: Sequence[Any]) -> None:
    """Register upload-demotion hints for iso-valued matrix operands.

    An unweighted graph stored with constant weights (BFS adjacency, a
    uniformly weighted benchmark matrix) need not ship its value array
    host→device — a real backend materialises the constant on-device.  The
    scan runs once per ``(id, version)`` (negative results cache as 0.0)
    and the hint lands on every device of the flushing backend;
    :meth:`repro.gpu.residency.ResidentSet.ensure` subtracts it when
    charging the upload.
    """
    tables = [dev.h2d_hints for dev in devices]
    for n in nodes:
        for v in n.inputs.values():
            if v is None or isinstance(v, LazyValue) or not hasattr(v, "indptr"):
                continue
            key = (id(v), getattr(v, "version", 0))
            missing = [t for t in tables if key not in t]
            if not missing:
                continue
            vals = v.values
            iso = bool(vals.size) and bool((vals == vals.flat[0]).all())
            for t in missing:
                t[key] = float(vals.nbytes) if iso else 0.0
