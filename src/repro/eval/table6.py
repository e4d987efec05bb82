"""Table 6: dynamic frequency of work file access modes (program BUP)."""

from __future__ import annotations

from repro.core.micro import WFMode
from repro.eval import paper_data
from repro.eval.report import Measured, derive, format_table

FIELDS = ("source1", "source2", "dest")


def generate(programs: dict[str, str] | None = None) -> Measured:
    return derive("table6", programs)


def render(data: Measured) -> str:
    body = []
    for mode in WFMode:
        row = mode.value
        body.append([row]
                    + [_measured(data, row, f) for f in FIELDS]
                    + [_paper(row, f) for f in FIELDS])
    body.append(["total"]
                + [f"100/{data['total', f'{f}.steps']:.1f}" for f in FIELDS]
                + [f"100/{paper_data.paper('table6', 'total', f'{f}.steps')}"
                   for f in FIELDS])
    table = format_table(
        ["access mode", "source1", "source2", "dest",
         "paper s1", "paper s2", "paper dest"],
        body,
        title="Table 6: work file access modes for BUP "
              "(% of field's WF accesses / % of all steps)")
    return (f"{table}\n"
            f"direct addressing share: "
            f"{data['direct addressing', 'share']:.1f}% "
            f"(paper: >={paper_data.DIRECT_ADDRESSING_MIN:.0f}%), "
            f"WFAR auto-increment: {data['WFAR auto-increment', 'share']:.0f}% "
            f"(paper: >={100 * paper_data.WFAR_AUTO_INCREMENT_MIN:.0f}%)")


def _measured(data: Measured, row: str, f: str) -> str:
    """A field's ``wf%/steps%`` where the paper prints one, else ``-``."""
    if paper_data.paper("table6", row, f"{f}.wf") is None:
        return "-"
    return f"{data[row, f'{f}.wf']:.1f}/{data[row, f'{f}.steps']:.1f}"


def _paper(row: str, f: str) -> str:
    value = paper_data.paper("table6", row, f"{f}.wf")
    if value is None:
        return "-"
    return f"{value}/{paper_data.paper('table6', row, f'{f}.steps')}"
