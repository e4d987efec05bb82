"""Shared table machinery: deriving declared cells from runs, and
plain-text rendering."""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from repro.eval import paper_data
from repro.eval.paper_data import Ratio, Sum, place
from repro.eval.runner import cache_stats, run_spec
from repro.memsys import CacheConfig


class _Run:
    """One program's run as the count views read it: its
    :class:`~repro.core.stats.StatsCollector` and its cache statistics
    under the derivation's cache configuration (default: the
    production cache), each fetched on first use."""

    def __init__(self, workload: str, cache_config) -> None:
        self.workload = workload
        self.cache_config = cache_config

    @functools.cached_property
    def stats(self):
        return run_spec(self.workload, record_trace=False).stats

    @functools.cached_property
    def cache(self):
        _, (stats,) = cache_stats(self.workload,
                                  [self.cache_config or CacheConfig()])
        return stats


#: The count views a :class:`~repro.eval.paper_data.Ratio` keys into:
#: view name -> reader of one :class:`_Run`'s ``item -> count`` mapping.
VIEWS = {
    "steps": lambda run: {"total": run.stats.total_steps},
    "calls": lambda run: {"inferences": run.stats.inferences,
                          "builtin": run.stats.builtin_calls},
    "module": lambda run: run.stats.module_steps(),
    "cmd": lambda run: run.stats.cache_command_counts(),
    "area": lambda run: run.stats.area_access_counts(),
    "wf": lambda run: {(f, mode): n
                       for f, counts in run.stats.wf_field_counts().items()
                       for mode, n in counts.items()},
    "wfar": lambda run: {
        "auto_increment": run.stats.wfar_auto_increment_ratio()},
    "branch": lambda run: run.stats.branch_counts(),
    "cache": lambda run: {(kind, area): getattr(counts, kind)
                          for area, counts in run.cache.per_area.items()
                          for kind in ("hits", "misses")},
}


class Measured(dict):
    """One artifact's derived cells, ``(row, col) -> value``, measured
    on the program labels ``programs`` (print order)."""

    def __init__(self, programs, values: dict) -> None:
        super().__init__(values)
        self.programs = tuple(programs)


def derive(artifact: str, programs: dict[str, str] | None = None,
           cache_config=None) -> Measured:
    """Measure every declared cell of ``artifact`` over ``programs``
    (label -> workload; default: the declared workloads).

    Each program's run is read once per count view its cells key into,
    whatever the number of cells."""
    declared = paper_data.ARTIFACTS[artifact]
    programs = programs or declared.workloads
    views = {view for _, _, how in declared.measures if isinstance(how, Ratio)
             for view, _ in how.num + how.den}
    values = {}
    for label, workload in programs.items():
        run = _Run(workload, cache_config)
        counts = {view: VIEWS[view](run) for view in views}
        for row, col, how in declared.measures:
            values[place(row, col, label)] = (
                sum(values[place(*key, label)] for key in how.cells)
                if isinstance(how, Sum) else how.of(counts))
    return Measured(programs, values)


def paired_rows(artifact: str, data: Measured, cols: Sequence[str]) -> list:
    """One measured row per program, each followed by its ``(paper)``
    row when the paper prints the program."""
    paper = paper_data.ARTIFACTS[artifact].paper
    body = []
    for program in data.programs:
        body.append([program] + [round(data[program, col], 1)
                                 for col in cols])
        printed = [paper.get((program, col)) for col in cols]
        if any(value is not None for value in printed):
            body.append(["  (paper)"] + printed)
    return body


def span(bounds: tuple[float, float]) -> str:
    """A paper range as printed: ``(77.0, 83.0)`` -> ``77-83``."""
    low, high = bounds
    return f"{low:.0f}-{high:.0f}"


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

