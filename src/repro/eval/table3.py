"""Table 3: execution rate of each cache command (% of all steps)."""

from __future__ import annotations

from repro.eval import paper_data
from repro.eval.report import Measured, derive, format_table, paired_rows, span

COLUMNS = ["read", "write_stack", "write", "write_total", "total"]


def generate(programs: dict[str, str] | None = None) -> Measured:
    return derive("table3", programs)


def render(data: Measured) -> str:
    table = format_table(
        ["program", "read", "write-stack", "write", "write-total", "total"],
        paired_rows("table3", data, COLUMNS),
        title="Table 3: execution rate of each cache command in total steps (%)")
    ratios = [data[p, "read_write_ratio"] for p in data.programs]
    shares = [data[p, "write_stack_share"] for p in data.programs]
    summary = (f"read:write ratio {min(ratios):.1f}-{max(ratios):.1f} "
               f"(paper: ~{paper_data.READ_WRITE_RATIO:.0f}), write-stack "
               f"share of writes {min(shares):.0f}-{max(shares):.0f}% "
               f"(paper: {span(paper_data.WRITE_STACK_SHARE)}%)")
    return f"{table}\n{summary}"
