"""Table 1: execution time of the benchmarks on PSI and DEC-2060.

For each of the 19 benchmarks: the PSI model's time (microsteps at
200 ns + cache stalls, from the run's trace replayed through the
production cache configuration) and the DEC baseline's cost-model
time, plus the DEC/PSI ratio the paper reports.  Absolute
milliseconds differ from 1987 (problem sizes are scaled; see the
workload registry); the reproduced quantity is the *ratio pattern*:
which machine wins on which program class, by roughly what factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import run_spec
from repro.workloads import get


@dataclass(frozen=True)
class Table1Row:
    name: str
    paper_id: str
    title: str
    psi_ms: float
    dec_ms: float
    ratio: float            # DEC / PSI


def generate(workload_names: list[str] | None = None) -> list[Table1Row]:
    """Run the Table 1 benchmarks on both machines."""
    rows = []
    for name in paper_data.ARTIFACTS["table1"].workloads.values():
        if workload_names is not None and name not in workload_names:
            continue
        workload = get(name)
        psi_ms = run_spec(name, record_trace=False).time_ms
        dec_ms = run_spec(name, "baseline").time_ms
        rows.append(Table1Row(
            name=name,
            paper_id=workload.paper_id,
            title=workload.title,
            psi_ms=psi_ms,
            dec_ms=dec_ms,
            ratio=dec_ms / psi_ms if psi_ms else 0.0,
        ))
    return rows


def render(rows: list[Table1Row]) -> str:
    papers = [paper_data.paper("table1", r.name, "dec_over_psi") for r in rows]
    agrees = [_winner_agrees(r.ratio, paper) for r, paper in zip(rows, papers)]
    table = format_table(
        ["id", "program", "PSI(ms)", "DEC(ms)", "DEC/PSI",
         "paper DEC/PSI", "winner agrees"],
        [(r.paper_id, r.title, round(r.psi_ms, 2), round(r.dec_ms, 2),
          round(r.ratio, 2), paper, "yes" if agree else "NO")
         for r, paper, agree in zip(rows, papers, agrees)],
        title="Table 1: execution time of benchmark programs on PSI and DEC-2060",
    )
    return f"{table}\nwinner agreement: {sum(agrees)}/{len(rows)}"


def _winner_agrees(ratio: float, paper: float, tolerance: float = 0.08) -> bool:
    """Same side of 1.0, treating near-1.0 ratios as ties."""
    near_measured = abs(ratio - 1.0) <= tolerance
    near_paper = abs(paper - 1.0) <= tolerance
    if near_paper:
        return near_measured or (ratio > 1.0) == (paper > 1.0)
    if near_measured:
        return True
    return (ratio > 1.0) == (paper > 1.0)
