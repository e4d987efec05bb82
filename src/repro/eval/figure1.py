"""Figure 1: performance improvement ratio vs cache memory size.

The WINDOW trace replayed through PMMS at capacities 8 words → 8K
words, other parameters at the PSI production values.  The paper's
finding: the improvement ratio saturates near 512 words.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import cache_stats
from repro.tools.pmms import FIGURE1_CAPACITIES, SweepPoint, sweep_configs, sweep_points

WORKLOAD = "window-1"


@dataclass(frozen=True)
class Figure1Result:
    points: list[SweepPoint]

    @property
    def saturation_capacity(self) -> int:
        """Smallest capacity reaching 95% of the full-size improvement."""
        full = self.points[-1].improvement_percent
        for point in self.points:
            if point.improvement_percent >= 0.95 * full:
                return point.capacity_words
        return self.points[-1].capacity_words


def generate(workload: str = WORKLOAD, capacities=FIGURE1_CAPACITIES) -> Figure1Result:
    configs = sweep_configs(capacities)
    run, stats = cache_stats(workload, configs)
    return Figure1Result(sweep_points(run.steps, configs, stats))


def render(result: Figure1Result) -> str:
    full = result.points[-1].improvement_percent or 1.0
    body = [(p.capacity_words, round(p.hit_ratio, 1),
             round(p.improvement_percent, 1),
             _bar(p.improvement_percent, full))
            for p in result.points]
    table = format_table(
        ["capacity (words)", "hit ratio %", "improvement %", ""],
        body,
        title="Figure 1: performance improvement ratio vs cache memory size "
              f"(program WINDOW)")
    return (f"{table}\nsaturates at ~{result.saturation_capacity} words "
            f"(paper: near {paper_data.FIGURE1_SATURATION_WORDS} words)")


def _bar(value: float, full: float, width: int = 40) -> str:
    filled = int(round(width * max(value, 0.0) / full)) if full else 0
    return "#" * min(filled, width)
