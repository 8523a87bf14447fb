"""Plain-text rendering of benchmark results in the paper's layout.

Figures in the paper are bar charts over (dataset × method); here each one
becomes an aligned text table with datasets as rows and methods as columns,
which is the faithful textual equivalent of "the same rows/series".
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Union

__all__ = [
    "format_table",
    "format_seconds",
    "format_millis",
    "format_bytes",
    "format_ratio",
]

Cell = Union[str, float, int, None]


def format_seconds(value: Optional[float]) -> str:
    """Render a duration in seconds with human-friendly units."""
    if value is None:
        return "—"
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    if value >= 1e-6:
        return f"{value * 1e6:.2f}us"
    return f"{value * 1e9:.0f}ns"


def format_millis(value: Optional[float]) -> str:
    """Render a duration given in seconds as milliseconds (paper's unit)."""
    if value is None:
        return "—"
    return f"{value * 1e3:.3g}ms"


def format_bytes(value: Optional[float]) -> str:
    """Render a byte count with binary units."""
    if value is None:
        return "—"
    size = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024
    raise AssertionError("unreachable")


def format_ratio(value: Optional[float]) -> str:
    """Render a fraction as a percentage (Table 4's ΔL/|L| column)."""
    if value is None:
        return "—"
    return f"{value * 100:.2f}%"


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    *,
    note: str = "",
) -> str:
    """Render an aligned monospace table with a title and optional note."""
    text_rows = [
        [cell if isinstance(cell, str) else ("—" if cell is None else str(cell))
         for cell in row]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        """Render one padded row."""
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, rule, line(list(headers)), rule]
    out.extend(line(row) for row in text_rows)
    out.append(rule)
    if note:
        out.append(note)
    return "\n".join(out)
