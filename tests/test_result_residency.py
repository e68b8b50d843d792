"""What a simulated backend op returns is born on the device.

cuda_sim states the rule once, in ``CudaSimBackend._launch``: every
container a launch returns is clean in the resident set.  multi_sim states
it once, in ``_sharded``: at P > 1 every container an op returns is sliced
(each device holds its owned slice), except an operand handed back, which
keeps its residency, and ``frontier_step``'s levels, which the step
replicates on every device.  Each container-returning op is called on the
backend directly here, so an op that escapes the rule shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.containers.csr import CSRMatrix
from repro.containers.sparsevec import SparseVector
from repro.core.descriptor import Descriptor
from repro.core.matrix import Matrix
from repro.core.monoid import PLUS_MONOID
from repro.core.operators import AINV, COLINDEX, PLUS, ROWINDEX, TRIL, VALUEGT
from repro.core.semiring import LOR_LAND, PLUS_TIMES
from repro.core.vector import Vector
from repro.testing.executor import backend_session
from repro.types import BOOL, INT64

N = 16
_UNVISITED = Descriptor(complement_mask=True, structural_mask=True, replace=True)


def _matrix(offsets) -> CSRMatrix:
    """Directed circulant: i → i + k for each offset k (so Aᵀ ≠ A)."""
    rows = np.repeat(np.arange(N), len(offsets))
    cols = (rows + np.tile(offsets, N)) % N
    return Matrix.from_lists(rows, cols, np.arange(rows.size) + 1, N, N, INT64).container


def _vector(idx, typ=INT64) -> SparseVector:
    idx = list(idx)
    return Vector.from_lists(idx, [1 + k for k in range(len(idx))], N, typ).container


class Operands:
    """Fresh host-side operands: nothing is resident before the call."""

    def __init__(self) -> None:
        self.a = _matrix([1, 3])
        self.b = _matrix([2, 5])
        self.u = _vector(range(0, N, 2))
        self.v = _vector(range(0, N, 3))
        self.narrow = _vector([0, 4])  # restricting u to it drops entries
        self.wide = _vector(range(N))  # restricting u to it drops nothing
        self.levels = Vector.sparse(INT64, N).container
        self.frontier = _vector([0], BOOL)


def _frontier_step(direction):
    return lambda be, d: be.frontier_step(
        d.levels, d.frontier, d.a, 0, LOR_LAND, _UNVISITED, direction
    )


#: Every backend op that returns a container, as ``(backend, operands) -> result``.
OPS = {
    "mxv_push": lambda be, d: be.mxv(d.a, d.u, PLUS_TIMES, direction="push"),
    "mxv_pull": lambda be, d: be.mxv(d.a, d.u, PLUS_TIMES, direction="pull"),
    "vxm_push": lambda be, d: be.vxm(d.u, d.a, PLUS_TIMES, direction="push"),
    "vxm_pull": lambda be, d: be.vxm(d.u, d.a, PLUS_TIMES, direction="pull"),
    "mxm": lambda be, d: be.mxm(d.a, d.b, PLUS_TIMES),
    "mxm_masked": lambda be, d: be.mxm(d.a, d.b, PLUS_TIMES, mask=d.b),
    "ewise_add_vector": lambda be, d: be.ewise_add_vector(d.u, d.v, PLUS),
    "ewise_mult_vector": lambda be, d: be.ewise_mult_vector(d.u, d.v, PLUS),
    "ewise_add_matrix": lambda be, d: be.ewise_add_matrix(d.a, d.b, PLUS),
    "ewise_mult_matrix": lambda be, d: be.ewise_mult_matrix(d.a, d.b, PLUS),
    "ewise_apply_vector": lambda be, d: be.ewise_apply_vector(d.u, d.v, PLUS, AINV),
    "ewise_reduce_vector": lambda be, d: be.ewise_reduce_vector(
        d.u, d.v, PLUS, None, True, PLUS_MONOID, INT64
    ),
    "fill_ewise_vector": lambda be, d: be.fill_ewise_vector(1, N, INT64, d.u, PLUS, True),
    "sink_restrict_shrinks": lambda be, d: be.sink_restrict(d.u, d.narrow),
    "sink_restrict_unchanged": lambda be, d: be.sink_restrict(d.u, d.wide),
    "frontier_step_push": _frontier_step("push"),
    "frontier_step_pull": _frontier_step("pull"),
    "apply_vector": lambda be, d: be.apply_vector(d.u, AINV),
    "apply_matrix": lambda be, d: be.apply_matrix(d.a, AINV),
    "reduce_matrix_vector": lambda be, d: be.reduce_matrix_vector(d.a, PLUS_MONOID),
    "transpose": lambda be, d: be.transpose(d.a),
    "select_vector": lambda be, d: be.select_vector(d.u, VALUEGT, 2),
    "select_matrix": lambda be, d: be.select_matrix(d.a, TRIL, 0),
    "apply_indexop_vector": lambda be, d: be.apply_indexop_vector(d.u, ROWINDEX, 0),
    "apply_indexop_matrix": lambda be, d: be.apply_indexop_matrix(d.a, COLINDEX, 0),
    "extract_vector": lambda be, d: be.extract_vector(d.u, np.array([6, 0, 3])),
    "extract_matrix": lambda be, d: be.extract_matrix(
        d.a, np.array([2, 0]), np.array([3, 1, 5])
    ),
}

#: Ops whose every returned container is new (not an operand, not replicated).
NEW_RESULT_OPS = sorted(
    k for k in OPS if k != "sink_restrict_unchanged" and not k.startswith("frontier_step")
)


def _containers(out):
    items = out if isinstance(out, tuple) else (out,)
    found = [c for c in items if isinstance(c, (SparseVector, CSRMatrix))]
    assert found, out
    return found


@pytest.mark.parametrize("spec", ["cuda_sim", "multi_sim:1:equal_rows"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_single_device_results_are_clean(spec, name):
    with backend_session(spec) as be:
        resident = be._resident if be.name == "cuda_sim" else be._ex(0)._resident
        for c in _containers(OPS[name](be, Operands())):
            assert resident.is_clean(c), name


@pytest.mark.parametrize("name", NEW_RESULT_OPS)
def test_sharded_results_are_sliced(name):
    with backend_session("multi_sim:2:equal_rows") as be:
        for c in _containers(OPS[name](be, Operands())):
            assert be._is_sliced(c), name


def test_sharded_operand_handed_back_keeps_its_residency():
    with backend_session("multi_sim:2:equal_rows") as be:
        d = Operands()
        out = be.sink_restrict(d.u, d.wide)
        assert out is d.u
        # Consumed as a replicated operand: clean everywhere, not sliced.
        assert not be._is_sliced(out)
        assert all(ex._resident.is_clean(out) for ex in be.cluster.executors)


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_sharded_frontier_step_levels_stay_replicated(direction):
    with backend_session("multi_sim:2:equal_rows") as be:
        levels, frontier = _frontier_step(direction)(be, Operands())
        assert not be._is_sliced(levels)
        assert all(ex._resident.is_clean(levels) for ex in be.cluster.executors)
        assert be._is_sliced(frontier)

