"""Table 5: cache hit ratios of each memory area.

Each hardware-evaluation program's hit ratios come from the PSI
production cache (8KW, 2-way, 4-word blocks, store-in, write-stack)
that COLLECT already simulates for every run: the run's own
:class:`~repro.memsys.CacheResult`, read without touching the memory
trace (:func:`~repro.eval.runner.cache_stats`).  Only for another
``config`` is the trace loaded and replayed through the PMMS cache
simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory import Area
from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import cache_stats
from repro.eval.table3 import HARDWARE_PROGRAMS
from repro.eval.table4 import AREA_ORDER
from repro.memsys import CacheConfig


@dataclass(frozen=True)
class Table5Row:
    program: str
    ratios: dict           # Area -> hit %
    total: float
    paper: tuple | None


def generate(programs: dict[str, str] | None = None,
             config: CacheConfig | None = None) -> list[Table5Row]:
    rows = []
    for paper_name, workload_name in (programs or HARDWARE_PROGRAMS).items():
        _, (stats,) = cache_stats(workload_name, [config or CacheConfig()])
        rows.append(Table5Row(
            program=paper_name,
            ratios={area: stats.area_hit_ratio(area) for area in AREA_ORDER},
            total=stats.hit_ratio,
            paper=paper_data.TABLE5.get(paper_name),
        ))
    return rows


def render(rows: list[Table5Row]) -> str:
    body = []
    for row in rows:
        body.append([row.program]
                    + [round(row.ratios[a], 1) for a in AREA_ORDER]
                    + [round(row.total, 1)])
        if row.paper:
            body.append(["  (paper)"] + list(row.paper))
    return format_table(
        ["program", "heap", "global stk", "local stk", "control stk",
         "trail stk", "total"],
        body,
        title="Table 5: cache hit ratios of each memory area (%)")
