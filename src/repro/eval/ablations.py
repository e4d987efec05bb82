"""§4.2 ablations: associativity and write policy.

* One 4KW set vs two 4KW sets, on WINDOW / 8 PUZZLE / BUP — the paper
  found the single-set cache only ~3% lower.
* Store-in vs store-through on WINDOW — the paper found store-in ~8%
  higher.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import cache_stats
from repro.tools.pmms import (
    ComparisonResult,
    associativity_pair,
    comparison,
    write_policy_pair,
)

ASSOCIATIVITY_PROGRAMS = {"window": "window-1", "puzzle8": "puzzle8",
                          "bup": "bup-2"}
POLICY_PROGRAM = "window-1"


@dataclass(frozen=True)
class AblationResults:
    associativity: dict[str, ComparisonResult]
    write_policy: ComparisonResult


def _compare(workload: str, pair) -> ComparisonResult:
    run, stats = cache_stats(workload, [config for _, config in pair])
    return comparison(pair, run.steps, stats)


def generate() -> AblationResults:
    # Two 4KW sets and store-in are the production geometry, answered
    # from each run's stored result; only the other side is replayed.
    return AblationResults(
        {paper_name: _compare(workload, associativity_pair())
         for paper_name, workload in ASSOCIATIVITY_PROGRAMS.items()},
        _compare(POLICY_PROGRAM, write_policy_pair()))


def render(results: AblationResults) -> str:
    rows = []
    for name, comparison in results.associativity.items():
        rows.append((name, round(comparison.improvement_a, 1),
                     round(comparison.improvement_b, 1),
                     round(comparison.relative_loss_percent, 1)))
    assoc = format_table(
        ["program", "two 4KW sets (imp %)", "one 4KW set (imp %)",
         "loss of one set %"],
        rows,
        title="Ablation: set associativity "
              f"(paper: one set only ~{paper_data.ONE_SET_LOSS_PERCENT:.0f}% lower)")
    policy = results.write_policy
    gain = policy.relative_loss_percent
    policy_text = (
        "Ablation: write policy (program WINDOW)\n"
        f"store-in improvement:      {policy.improvement_a:.1f}%\n"
        f"store-through improvement: {policy.improvement_b:.1f}%\n"
        f"store-in advantage:        {gain:.1f}% "
        f"(paper: ~{paper_data.STORE_IN_GAIN_PERCENT:.0f}%)")
    return f"{assoc}\n\n{policy_text}"
