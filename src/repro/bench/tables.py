"""Paper-style table and series rendering for benchmark output.

The benchmark files print the same rows/series the reconstructed paper
tables contain; these helpers keep the formatting consistent and also do
the "shape assertions" (who wins, by what factor) that stand in for
matching absolute numbers from 2016 hardware.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "format_series", "ascii_chart", "speedup", "check_ordering"]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    col_width: int = 14,
) -> str:
    """Fixed-width text table with a title rule."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e5):
                return f"{cell:.3e}"
            return f"{cell:.4f}"
        return str(cell)

    rendered = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(
            col_width,
            len(columns[j]) + 2,
            max((len(r[j]) for r in rendered), default=0) + 2,
        )
        for j in range(len(columns))
    ]
    lines = [title, "=" * min(len(title), 78)]
    lines.append("".join(f"{c:>{w}}" for c, w in zip(columns, widths)))
    lines.append("-" * sum(widths))
    for row in rendered:
        lines.append("".join(f"{c:>{w}}" for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: Dict[str, Sequence[float]],
    chart: bool = True,
) -> str:
    """A figure rendered as columns: x, then one column per series.

    With ``chart=True`` a log-scale ASCII chart of the same series is
    appended — the "figure" half of a text-only paper reproduction.
    """
    cols = [x_label] + list(series)
    rows = [[x] + [series[s][i] for s in series] for i, x in enumerate(xs)]
    out = format_table(title, cols, rows)
    if chart:
        plot = ascii_chart(xs, series)
        if plot:
            out += "\n\n" + plot
    return out


def ascii_chart(
    xs: Sequence[object],
    series: Dict[str, Sequence[float]],
    width: int = 52,
    log: bool = True,
) -> str:
    """Horizontal-bar log chart of one value per (x, series) pair.

    NaNs (unmeasured cells) are skipped.  Returns "" when nothing is
    plottable.
    """
    import math

    points = []
    for name, ys in series.items():
        for x, y in zip(xs, ys):
            if y is None or (isinstance(y, float) and (y != y)):
                continue
            if y <= 0:
                continue
            points.append((name, x, float(y)))
    if not points:
        return ""
    lo = min(p[2] for p in points)
    hi = max(p[2] for p in points)
    if log:
        span = max(math.log10(hi / lo), 1e-9)
        scale = lambda y: int(round(width * math.log10(y / lo) / span))
    else:
        span = max(hi - lo, 1e-300)
        scale = lambda y: int(round(width * (y - lo) / span))
    label_w = max(len(f"{name} @ {x}") for name, x, _ in points) + 2
    lines = [f"(log scale, {lo:.3e} .. {hi:.3e})" if log else f"({lo:.3e} .. {hi:.3e})"]
    for name in series:
        for x, y in zip(xs, series[name]):
            if y is None or (isinstance(y, float) and (y != y)) or y <= 0:
                continue
            bar = "█" * max(scale(y), 1)
            lines.append(f"{f'{name} @ {x}':<{label_w}}|{bar} {y:.3e}")
    return "\n".join(lines)


def speedup(baseline: float, other: float) -> float:
    """baseline/other (how many times faster ``other`` is)."""
    return baseline / other if other > 0 else float("inf")


def check_ordering(
    values: Dict[str, float],
    expect_faster: Sequence[str],
    expect_slower: str,
    min_factor: float = 1.0,
) -> List[str]:
    """Shape assertion: each of ``expect_faster`` beats ``expect_slower``
    by at least ``min_factor``.  Returns a list of violation messages
    (empty = shape holds)."""
    problems = []
    slow = values[expect_slower]
    for fast in expect_faster:
        f = values[fast]
        if f <= 0:
            continue
        if slow / f < min_factor:
            problems.append(
                f"{fast} ({f:.3e}s) not {min_factor}x faster than "
                f"{expect_slower} ({slow:.3e}s)"
            )
    return problems
