"""Paper-style ASCII tables and series for the benchmark harness."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = [
    "format_size",
    "format_time",
    "table",
    "series_table",
    "comparison_row",
]


def format_size(nbytes: int) -> str:
    """Paper-style size labels: 16, 256, 4K, 1M, ..."""
    if nbytes >= 1 << 20 and nbytes % (1 << 20) == 0:
        return f"{nbytes >> 20}M"
    if nbytes >= 1 << 10 and nbytes % (1 << 10) == 0:
        return f"{nbytes >> 10}K"
    return str(nbytes)


def format_time(seconds: float, unit: str = "us") -> str:
    """Render a time in the requested unit with sensible precision."""
    if unit == "us":
        v = seconds * 1e6
    elif unit == "ms":
        v = seconds * 1e3
    elif unit == "s":
        v = seconds
    else:
        raise ValueError(f"unknown unit {unit!r}")
    if v >= 1000:
        return f"{v:,.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.2f}"


def table(
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """A plain monospace table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def series_table(
    points: List[dict],
    columns: Sequence[str],
    unit: str = "us",
    title: Optional[str] = None,
    size_key: str = "size",
) -> str:
    """Format a message-size sweep: one row per size, one column per design."""
    headers = ["Size"] + [f"{c} ({unit})" for c in columns]
    rows = []
    for point in points:
        row = [format_size(point[size_key])]
        row.extend(format_time(point[c], unit) for c in columns)
        rows.append(row)
    return table(headers, rows, title=title)


def comparison_row(name: str, base: float, ours: float, unit: str = "s") -> List[str]:
    """One Tables II/III style row: config, baseline, ours, improvement."""
    improvement = 100.0 * (base - ours) / base if base > 0 else 0.0
    return [
        name,
        format_time(base, unit),
        format_time(ours, unit),
        f"{improvement:.0f}%",
    ]
