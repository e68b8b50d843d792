"""MatrixMarket coordinate-format I/O.

Supports the subset graph work actually uses: ``matrix coordinate
{real,integer,pattern} {general,symmetric}``.  Written files round-trip
bit-exactly for integer/pattern and to full float precision for real.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from ..core.matrix import Matrix
from ..core.operators import FIRST
from ..exceptions import InvalidValueError
from ..types import BOOL, FP64, GrBType, INT64

__all__ = ["read_matrix_market", "write_matrix_market"]

_FIELD_TYPES = {"real": FP64, "integer": INT64, "pattern": BOOL}


def _open(path_or_file: Union[str, Path, TextIO], mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode), True
    return path_or_file, False


def read_matrix_market(
    path_or_file: Union[str, Path, TextIO],
    typ: Optional[GrBType] = None,
) -> Matrix:
    """Parse a MatrixMarket coordinate file into a Matrix.

    ``symmetric`` files are expanded to both triangles.  1-based indices are
    converted to 0-based.  ``typ`` overrides the domain implied by the
    header field.
    """
    f, should_close = _open(path_or_file, "r")
    try:
        header = f.readline().strip().split()
        if (
            len(header) < 5
            or header[0] not in ("%%MatrixMarket", "%MatrixMarket")
            or header[1].lower() != "matrix"
            or header[2].lower() != "coordinate"
        ):
            raise InvalidValueError(f"not a MatrixMarket coordinate header: {header}")
        field = header[3].lower()
        symmetry = header[4].lower()
        if field not in _FIELD_TYPES:
            raise InvalidValueError(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise InvalidValueError(f"unsupported symmetry {symmetry!r}")
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        parts = line.split()
        if len(parts) != 3:
            raise InvalidValueError(f"bad size line: {line!r}")
        nrows, ncols, nnz = map(int, parts)
        t = typ or _FIELD_TYPES[field]
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=t.dtype)
        for k in range(nnz):
            entry = f.readline().split()
            if len(entry) < 2:
                raise InvalidValueError(f"truncated entry line {k + 1}")
            rows[k] = int(entry[0]) - 1
            cols[k] = int(entry[1]) - 1
            if field == "pattern":
                vals[k] = True
            else:
                vals[k] = t.cast(float(entry[2]) if field == "real" else int(entry[2]))
        if symmetry == "symmetric":
            off = rows != cols
            mirror_r, mirror_c, mirror_v = cols[off], rows[off], vals[off]
            rows = np.concatenate([rows, mirror_r])
            cols = np.concatenate([cols, mirror_c])
            vals = np.concatenate([vals, mirror_v])
        return Matrix.from_lists(rows, cols, vals, nrows, ncols, t, dup=FIRST)
    finally:
        if should_close:
            f.close()


def write_matrix_market(
    m: Matrix,
    path_or_file: Union[str, Path, TextIO],
    field: Optional[str] = None,
    comment: str = "",
) -> None:
    """Write a Matrix in MatrixMarket general coordinate format."""
    if field is None:
        field = (
            "pattern"
            if m.type.is_boolean
            else ("integer" if m.type.is_integral else "real")
        )
    if field not in _FIELD_TYPES:
        raise InvalidValueError(f"unsupported field {field!r}")
    f, should_close = _open(path_or_file, "w")
    try:
        f.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        for line in comment.splitlines():
            f.write(f"% {line}\n")
        f.write(f"{m.nrows} {m.ncols} {m.nvals}\n")
        coo = m.to_coo()
        for r, c, v in zip(coo.rows, coo.cols, coo.vals):
            if field == "pattern":
                f.write(f"{r + 1} {c + 1}\n")
            elif field == "integer":
                f.write(f"{r + 1} {c + 1} {int(v)}\n")
            else:
                f.write(f"{r + 1} {c + 1} {float(v)!r}\n")
    finally:
        if should_close:
            f.close()
