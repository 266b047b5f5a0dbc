"""Plain-text rendering of benchmark tables and series.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly without pulling in any
plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(cell: Cell, precision: int) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render ``rows`` as an aligned monospace table."""
    str_rows: List[List[str]] = [
        [_format_cell(c, precision) for c in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """A crude unicode sparkline (for quick visual sanity in bench logs)."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo = min(values)
    hi = max(values)
    span = hi - lo or 1.0
    step = max(1, len(values) // width)
    picked = list(values)[::step][:width]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in picked
    )
