"""Plain-text table rendering for the evaluation harness."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    materialised = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.rjust(widths[i]) if _is_numeric(cell)
                               else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        # Format the magnitude, then re-apply the sign: negatives get
        # exactly the positive rendering plus "-", and anything that
        # rounds to zero collapses to "0.0" (never "-0.00").
        magnitude = abs(value)
        if magnitude < 0.005:
            return "0.0"
        if magnitude < 0.1:
            text = f"{magnitude:.2f}"
        else:
            text = (f"{magnitude:.1f}" if magnitude < 1000
                    else f"{magnitude:.0f}")
        return f"-{text}" if value < 0 else text
    if value is None:
        return "-"
    return str(value)


def _is_numeric(cell: str) -> bool:
    stripped = cell.lstrip("-")
    return bool(stripped) and all(c.isdigit() or c == "." for c in stripped)

