"""Plain-text reporting helpers for tables and figures, and the record writer.

The benchmarks print their results as aligned text tables (the closest
analogue of the paper's LaTeX tables that works in a terminal and in
``bench_output.txt``) and write their JSON records through
:func:`write_record`, each with the :func:`machine_block` of the host that
produced it.  The helpers here are deliberately dependency-free.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_series",
    "format_matrix",
    "machine_block",
    "write_record",
    "write_script_record",
]


def machine_block() -> Dict[str, object]:
    """The ``machine`` block of a benchmark record: the producing host."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_record(record: Mapping[str, object], path: str) -> str:
    """Write a benchmark record as ``json.dumps(record, indent=2)`` plus a
    newline (keys in insertion order); returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return path


def write_script_record(
    record: Mapping[str, object], output: Optional[str], smoke: bool, committed: str
) -> None:
    """Write a ``benchmarks/bench_*.py`` run's record and print where.

    ``output`` wins when given.  Without it a full run rewrites the
    ``committed`` record and a smoke run writes nothing, so a local smoke
    run cannot replace a committed record (and its ``smoke_reference``,
    the CI gate's baseline).
    """
    if output is None and not smoke:
        output = committed
    if output is not None:
        print(f"\nwrote {write_record(record, output)}")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of rows as an aligned monospace table."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    name: str, points: Mapping[object, float], float_format: str = "{:.3f}"
) -> str:
    """Render one named series (e.g. PEHE vs rho) on a single line."""
    parts = [f"{key}={float_format.format(value)}" for key, value in points.items()]
    return f"{name}: " + ", ".join(parts)


def format_matrix(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a labelled matrix (used for the Fig. 5 correlation summaries)."""
    headers = [""] + list(col_labels)
    rows = [[label] + list(row) for label, row in zip(row_labels, values)]
    return format_table(headers, rows, title=title, float_format=float_format)
