"""Edge batches: the unit of mutation for streaming graphs.

An :class:`EdgeBatch` is an ordered sequence of edge operations — inserts
``(i, j, v)`` (which also overwrite an existing edge's value) and deletes
``(i, j)`` — applied atomically to a :class:`~repro.streaming.graph.
DynamicGraph`.  Batches are plain JSON-serialisable values so the mutation
fuzzer can embed them in replayable programs.

Within one batch the *last* operation on an ``(i, j)`` pair wins, matching
the semantics of applying the ops one at a time; :meth:`normalized` folds a
batch to that canonical deduplicated form (sorted by ``(row, col)``).  A
graph's pending delta is itself a normalized batch: :meth:`then` folds a
later batch in, :meth:`lookup` is its point read and :attr:`nbytes` what
uploading it moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import IndexOutOfBoundsError, InvalidValueError

__all__ = ["EdgeBatch", "random_edge_batch"]


@dataclass
class EdgeBatch:
    """An ordered list of edge inserts/deletes.

    ``rows``/``cols``/``vals`` are parallel arrays; ``is_insert[k]`` tells
    whether op ``k`` inserts (value ``vals[k]``) or deletes (``vals[k]``
    ignored, stored as 0).
    """

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    vals: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    is_insert: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        self.is_insert = np.asarray(self.is_insert, dtype=bool)
        sizes = {a.size for a in (self.rows, self.cols, self.vals, self.is_insert)}
        if len(sizes) > 1:
            raise InvalidValueError(
                f"ragged edge batch arrays: sizes {sorted(sizes)}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_ops(
        cls, ops: Sequence[Tuple[str, int, int, Any]]
    ) -> "EdgeBatch":
        """Build from ``[("insert", i, j, v) | ("delete", i, j, _), ...]``."""
        rows = np.array([o[1] for o in ops], dtype=np.int64)
        cols = np.array([o[2] for o in ops], dtype=np.int64)
        vals = np.array(
            [float(o[3]) if o[0] == "insert" else 0.0 for o in ops], dtype=np.float64
        )
        ins = np.array([o[0] == "insert" for o in ops], dtype=bool)
        return cls(rows, cols, vals, ins)

    @classmethod
    def inserts(cls, rows: Any, cols: Any, vals: Any) -> "EdgeBatch":
        rows = np.asarray(rows, dtype=np.int64)
        return cls(rows, cols, vals, np.ones(rows.size, dtype=bool))

    @classmethod
    def deletes(cls, rows: Any, cols: Any) -> "EdgeBatch":
        rows = np.asarray(rows, dtype=np.int64)
        return cls(
            rows, cols, np.zeros(rows.size, dtype=np.float64),
            np.zeros(rows.size, dtype=bool),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.rows.size)

    @property
    def insert_count(self) -> int:
        return int(np.count_nonzero(self.is_insert))

    @property
    def delete_count(self) -> int:
        return len(self) - self.insert_count

    @property
    def nbytes(self) -> int:
        """Bytes of the four arrays (what a device upload of the batch moves)."""
        return int(
            self.rows.nbytes + self.cols.nbytes + self.vals.nbytes
            + self.is_insert.nbytes
        )

    def lookup(self, i: int, j: int) -> Optional[Tuple[bool, float]]:
        """The op on ``(i, j)`` of a normalized batch: ``(is_insert, value)``
        or None."""
        lo = int(np.searchsorted(self.rows, i, side="left"))
        hi = int(np.searchsorted(self.rows, i, side="right"))
        k = lo + int(np.searchsorted(self.cols[lo:hi], j))
        if k < hi and self.cols[k] == j:
            return bool(self.is_insert[k]), float(self.vals[k])
        return None

    def validate(self, nrows: int, ncols: int) -> None:
        if len(self) == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= nrows:
            raise IndexOutOfBoundsError(
                f"edge batch row outside [0, {nrows})"
            )
        if self.cols.min() < 0 or self.cols.max() >= ncols:
            raise IndexOutOfBoundsError(
                f"edge batch col outside [0, {ncols})"
            )

    def normalized(self) -> "EdgeBatch":
        """Last-wins dedup per ``(row, col)``, sorted by ``(row, col)``.

        Applying the normalized batch is equivalent to applying the original
        ops in order — an insert-then-delete pair collapses to the delete,
        a delete-then-insert to the insert, repeated inserts to the last
        value.
        """
        if len(self) <= 1:
            return self
        order = np.lexsort((np.arange(len(self)), self.cols, self.rows))
        r, c = self.rows[order], self.cols[order]
        # Keep the last op of each equal (row, col) run.
        last = np.ones(r.size, dtype=bool)
        last[:-1] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        sel = order[last]
        return EdgeBatch(
            self.rows[sel], self.cols[sel], self.vals[sel], self.is_insert[sel]
        )

    def then(self, later: "EdgeBatch") -> "EdgeBatch":
        """This batch's ops followed by ``later``'s, normalized: later ops win.

        The result owns fresh arrays, so neither input aliases it.
        """
        return EdgeBatch(
            np.concatenate([self.rows, later.rows]),
            np.concatenate([self.cols, later.cols]),
            np.concatenate([self.vals, later.vals]),
            np.concatenate([self.is_insert, later.is_insert]),
        ).normalized()

    # ------------------------------------------------------------------
    # Serialisation (for mutation programs / repros)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, List[Any]]:
        return {
            "rows": self.rows.tolist(),
            "cols": self.cols.tolist(),
            "vals": self.vals.tolist(),
            "is_insert": self.is_insert.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "EdgeBatch":
        return cls(
            np.asarray(d["rows"], dtype=np.int64),
            np.asarray(d["cols"], dtype=np.int64),
            np.asarray(d["vals"], dtype=np.float64),
            np.asarray(d["is_insert"], dtype=bool),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeBatch(+{self.insert_count}/-{self.delete_count})"
        )


def random_edge_batch(
    seed: int,
    n: int,
    inserts: int,
    deletes: int = 0,
    existing: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> EdgeBatch:
    """A deterministic random batch on an ``n``-vertex graph.

    Inserted edges are uniform random pairs with small integral weights
    (exact in floating point).  Deletes are sampled from ``existing``
    ``(rows, cols)`` arrays when given — plus an occasional nonexistent
    edge, exercising the delete-is-a-no-op contract — otherwise uniform
    random pairs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x57E4, int(seed)]))
    ops: List[Tuple[str, int, int, float]] = []
    for _ in range(int(inserts)):
        ops.append(
            (
                "insert",
                int(rng.integers(0, n)),
                int(rng.integers(0, n)),
                float(rng.integers(1, 10)),
            )
        )
    for _ in range(int(deletes)):
        if existing is not None and existing[0].size and rng.random() < 0.8:
            er, ec = existing
            k = int(rng.integers(0, er.size))
            ops.append(("delete", int(er[k]), int(ec[k]), 0.0))
        else:
            ops.append(
                ("delete", int(rng.integers(0, n)), int(rng.integers(0, n)), 0.0)
            )
    rng.shuffle(ops)
    if not ops:
        return EdgeBatch()
    return EdgeBatch.from_ops(ops)
