"""Host-computed ops are priced through one hook, ``Backend.host_op``.

``select``, ``apply`` with an index op and ``extract`` (vector and matrix)
are computed on the host by ``Backend``'s defaults.  cuda_sim prices each
as one ``select_compact`` or ``gather_extract`` launch over the op's work
count; multi_sim launches the same kernel on every device at 1/P of that
count (P = 1 delegates to cuda_sim).  The results are cpu's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.cuda_sim.kernels import GATHER, SELECT_COMPACT
from repro.backends.dispatch import get_backend
from repro.containers.csr import CSRMatrix
from repro.core.matrix import Matrix
from repro.core.operators import COLINDEX, ROWINDEX, TRIL, VALUEGT
from repro.core.vector import Vector
from repro.testing.executor import backend_session
from repro.types import INT64

N = 16
ROWS, COLS = np.array([2, 0, 7]), np.array([3, 1, 5, 1])


def _operands():
    """Fresh host-side operands: nothing is resident before the call."""
    rows = np.repeat(np.arange(N), 2)
    cols = (rows + np.tile([1, 3], N)) % N
    a = Matrix.from_lists(rows, cols, np.arange(rows.size) + 1, N, N, INT64).container
    u = Vector.from_lists(list(range(0, N, 2)), list(range(1, 9)), N, INT64).container
    return a, u


#: name -> (kernel, call, the work count the op prices).
OPS = {
    "select_vector": (
        SELECT_COMPACT, lambda be, a, u: be.select_vector(u, VALUEGT, 2), float(N // 2)
    ),
    "select_matrix": (
        SELECT_COMPACT, lambda be, a, u: be.select_matrix(a, TRIL, 0), float(2 * N)
    ),
    "apply_indexop_vector": (
        SELECT_COMPACT, lambda be, a, u: be.apply_indexop_vector(u, ROWINDEX, 0), float(N // 2)
    ),
    "apply_indexop_matrix": (
        SELECT_COMPACT, lambda be, a, u: be.apply_indexop_matrix(a, COLINDEX, 0), float(2 * N)
    ),
    "extract_vector": (
        GATHER, lambda be, a, u: be.extract_vector(u, np.array([6, 0, 3])), 3
    ),
    "extract_matrix": (
        GATHER, lambda be, a, u: be.extract_matrix(a, ROWS, COLS), float(len(ROWS) * len(COLS))
    ),
}


def _arrays(c):
    if isinstance(c, CSRMatrix):
        return (c.shape, c.indptr, c.indices, c.values, c.type)
    return (c.size, c.indices, c.values, c.type)


@pytest.mark.parametrize("spec", ["cuda_sim", "multi_sim:1:equal_rows", "multi_sim:2:equal_rows"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_host_op_prices_one_kernel_per_device(spec, name):
    kernel, call, n = OPS[name]
    expected = call(get_backend("cpu"), *_operands())
    with backend_session(spec) as be:
        out = call(be, *_operands())
        if be.name == "cuda_sim":
            devices, per = [be._dev()], n
        else:
            devices = [be._dev(p) for p in range(be.nparts)]
            # P = 1 delegates: one device at the op's full count.
            per = n if be.nparts == 1 else max(float(n) / be.nparts, 1.0)
        work = kernel.work(None, per, 8)
        for dev in devices:
            recs = [r for r in dev.profiler.records if r.kind == "kernel"]
            assert [r.name for r in recs] == [kernel.name], name
            assert recs[0].flops == work.flops
            assert recs[0].bytes == work.bytes_total
    for x, y in zip(_arrays(out), _arrays(expected)):
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
