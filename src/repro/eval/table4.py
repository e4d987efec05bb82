"""Table 4: access frequency of each memory area (% of all accesses)."""

from __future__ import annotations

from repro.core.memory import Area
from repro.eval.report import Measured, derive, format_table, paired_rows


def generate(programs: dict[str, str] | None = None) -> Measured:
    return derive("table4", programs)


def render(data: Measured) -> str:
    return format_table(
        ["program", "heap", "global stk", "local stk", "control stk", "trail stk"],
        paired_rows("table4", data, [a.label for a in Area]),
        title="Table 4: access frequency of each memory area (%)")
