"""Table 7: dynamic frequency of branch operations (BUP, window, 8 puzzle)."""

from __future__ import annotations

from repro.core.micro import BRANCH_TYPE, BranchOp
from repro.eval import paper_data
from repro.eval.report import Measured, derive, format_table, span


def generate(programs: dict[str, str] | None = None) -> Measured:
    return derive("table7", programs)


def render(data: Measured) -> str:
    programs = list(data.programs)
    body = []
    current_type = 0
    for op in BranchOp:
        if BRANCH_TYPE[op] != current_type:
            current_type = BRANCH_TYPE[op]
            body.append([f"Type{current_type}"] + [""] * (2 * len(programs)))
        body.append([f"  {op.value}"]
                    + [round(data[op.value, p], 1) for p in programs]
                    + [paper_data.paper("table7", op.value, p)
                       for p in programs])
    headers = (["operation"] + programs + [f"paper {p}" for p in programs])
    table = format_table(
        headers, body,
        title="Table 7: dynamic frequency of branch operations (%)")
    lines = [table]
    for p in programs:
        lines.append(
            f"{p}: branch ops {data['branch ops', p]:.0f}% of steps "
            f"(paper: {span(paper_data.BRANCH_RATE_RANGE)}), conditionals "
            f"{data['conditionals', p]:.0f}% "
            f"(paper: {span(paper_data.CONDITIONAL_RATE_RANGE)}), multi-way "
            f"{data['multi-way', p]:.0f}% "
            f"(paper: {span(paper_data.MULTIWAY_RATE_RANGE)})")
    return "\n".join(lines)
