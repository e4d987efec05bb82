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
from repro.workloads import table1_workloads


@dataclass(frozen=True)
class Table1Row:
    name: str
    paper_id: str
    title: str
    psi_ms: float
    dec_ms: float
    ratio: float            # DEC / PSI
    paper_psi_ms: float
    paper_dec_ms: float
    paper_ratio: float
    psi_inferences: int


def generate(workload_names: list[str] | None = None) -> list[Table1Row]:
    """Run the Table 1 benchmarks on both machines."""
    rows = []
    workloads = table1_workloads()
    if workload_names is not None:
        workloads = [w for w in workloads if w.name in workload_names]
    for workload in workloads:
        psi = run_spec(workload.name, record_trace=False)
        dec = run_spec(workload.name, "baseline")
        psi_ms = psi.time_ms
        dec_ms = dec.time_ms
        paper_psi, paper_dec, paper_ratio = paper_data.TABLE1[workload.name]
        rows.append(Table1Row(
            name=workload.name,
            paper_id=workload.paper_id,
            title=workload.title,
            psi_ms=psi_ms,
            dec_ms=dec_ms,
            ratio=dec_ms / psi_ms if psi_ms else 0.0,
            paper_psi_ms=paper_psi,
            paper_dec_ms=paper_dec,
            paper_ratio=paper_ratio,
            psi_inferences=psi.stats.inferences,
        ))
    return rows


def render(rows: list[Table1Row]) -> str:
    table = format_table(
        ["id", "program", "PSI(ms)", "DEC(ms)", "DEC/PSI",
         "paper DEC/PSI", "winner agrees"],
        [(r.paper_id, r.title, round(r.psi_ms, 2), round(r.dec_ms, 2),
          round(r.ratio, 2), r.paper_ratio,
          "yes" if _winner_agrees(r) else "NO")
         for r in rows],
        title="Table 1: execution time of benchmark programs on PSI and DEC-2060",
    )
    agree = sum(_winner_agrees(r) for r in rows)
    return f"{table}\nwinner agreement: {agree}/{len(rows)}"


def _winner_agrees(row: Table1Row, tolerance: float = 0.08) -> bool:
    """Same side of 1.0, treating near-1.0 ratios as ties."""
    near_measured = abs(row.ratio - 1.0) <= tolerance
    near_paper = abs(row.paper_ratio - 1.0) <= tolerance
    if near_paper:
        return near_measured or (row.ratio > 1.0) == (row.paper_ratio > 1.0)
    if near_measured:
        return True
    return (row.ratio > 1.0) == (row.paper_ratio > 1.0)
