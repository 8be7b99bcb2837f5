"""Plain-text report tables for the benchmark harness.

The experiment runners collect rows as dictionaries; this module turns them
into aligned text tables (the format the benchmark scripts print and that
EXPERIMENTS.md embeds).
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    *,
    title: str | None = None,
    missing: str = "-",
) -> str:
    """Render rows of dictionaries as an aligned, pipe-separated text table.

    Args:
        rows: the data; each row may omit columns (rendered as ``missing``).
        columns: column order; defaults to the keys of the first row.
        title: optional heading printed above the table.
        missing: placeholder for absent values.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_render(row.get(column, missing)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        lines.append(" | ".join(value.ljust(width) for value, width in zip(line, widths)))
    return "\n".join(lines)


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
