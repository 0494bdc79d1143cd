"""Plain-text tables for experiment output.

Every benchmark prints its tables through these helpers so the
rows EXPERIMENTS.md quotes look identical across experiments.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """An aligned monospace table with a title rule."""
    formatted = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in formatted:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def crossover(
    points_a: Sequence[Tuple[float, float]],
    points_b: Sequence[Tuple[float, float]],
) -> Optional[float]:
    """First x at which series B drops to/below series A (B wins), or None.

    Both series must be sampled at identical x values.
    """
    a_lookup = dict(points_a)
    for x, y_b in sorted(points_b):
        y_a = a_lookup.get(x)
        if y_a is not None and y_b <= y_a:
            return x
    return None
