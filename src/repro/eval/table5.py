"""Table 5: cache hit ratios of each memory area.

Each hardware-evaluation program's hit ratios come from the PSI
production cache (8KW, 2-way, 4-word blocks, store-in, write-stack)
that COLLECT already simulates for every run: the run's own
:class:`~repro.memsys.CacheResult`, read without touching the memory
trace (:func:`~repro.eval.runner.cache_stats`).  Only for another
``config`` is the trace loaded and replayed through the PMMS cache
simulator."""

from __future__ import annotations

from repro.core.memory import Area
from repro.eval.report import Measured, derive, format_table, paired_rows
from repro.memsys import CacheConfig


def generate(programs: dict[str, str] | None = None,
             config: CacheConfig | None = None) -> Measured:
    return derive("table5", programs, config)


def render(data: Measured) -> str:
    return format_table(
        ["program", "heap", "global stk", "local stk", "control stk",
         "trail stk", "total"],
        paired_rows("table5", data, [a.label for a in Area] + ["total"]),
        title="Table 5: cache hit ratios of each memory area (%)")
