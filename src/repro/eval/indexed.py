"""``psi-eval indexed``: the "as if PSI had clause indexing" report.

The paper's PSI has no clause indexing — ``_call`` scans every clause
of a procedure in source order, pushing a choicepoint whenever more
than one remains (the faithful configuration every table is generated
from).  The DEC baseline *does* index (the "close indexing method",
§3.1), which is part of why it wins deterministic list code.  This
report answers the natural what-if: re-run every workload under
``MachineConfig(indexed=True)`` — first-argument clause selection
through :class:`repro.engine.index.ClauseIndex`, billed through the
declared ``control.switch_on_term`` / ``control.index_hash``
microroutines — and put the two PSI configurations side by side, so
Tables 1–5's PSI column can be re-derived as if the machine had
indexing.

Both columns come from the same spec-parameterized
:func:`repro.eval.runner.run_spec` path — the ``faithful`` and
``indexed`` run specs — so both sides are memory- and disk-cached
(``psi-eval indexed --all`` is free the second time) and ``--jobs``
can pre-warm them in parallel.  Answer multisets are compared for
every row — a speedup that changes answers is a bug, not a win — and
the per-row clause-selection counters (index hits/misses,
choicepoints avoided) are reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.answers import answer_multiset

#: The backtracking-heavy workload subset the ``indexed_vs_faithful``
#: bench stage gates on (``--min-indexed-speedup``): the applications
#: the paper calls "structure-and-backtracking" — BUP, LCP, the
#: harmonizer, the 8-puzzle and N-queens — where clause selection,
#: not arithmetic, dominates.  Deterministic list/arithmetic benchmarks
#: (nreverse, qsort, the Lisp interpreter trio) are reported but not
#: gated: indexing barely moves them, exactly as §3.1 predicts.
BACKTRACKING_HEAVY: tuple[str, ...] = (
    "bup-1", "bup-2", "bup-3", "bup-eval",
    "lcp-1", "lcp-2", "lcp-3", "lcp-eval",
    "harmonizer-1", "harmonizer-2", "harmonizer-3",
    "puzzle8", "queens-one", "queens-all",
)


@dataclass
class IndexedRow:
    """Faithful-vs-indexed comparison for one workload."""

    name: str
    faithful_steps: int
    indexed_steps: int
    faithful_ms: float
    indexed_ms: float
    index_hits: int
    index_misses: int
    choicepoints_avoided: int
    answers_equal: bool

    @property
    def step_speedup(self) -> float:
        return (self.faithful_steps / self.indexed_steps
                if self.indexed_steps else 0.0)

    @property
    def time_speedup(self) -> float:
        return self.faithful_ms / self.indexed_ms if self.indexed_ms else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "faithful_steps": self.faithful_steps,
            "indexed_steps": self.indexed_steps,
            "step_speedup": round(self.step_speedup, 4),
            "faithful_ms": round(self.faithful_ms, 4),
            "indexed_ms": round(self.indexed_ms, 4),
            "time_speedup": round(self.time_speedup, 4),
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "choicepoints_avoided": self.choicepoints_avoided,
            "answers_equal": self.answers_equal,
        }


@dataclass
class IndexedReport:
    rows: list[IndexedRow]

    @property
    def ok(self) -> bool:
        return all(row.answers_equal for row in self.rows)

    @property
    def backtracking_rows(self) -> list[IndexedRow]:
        return [r for r in self.rows if r.name in BACKTRACKING_HEAVY]

    @property
    def geomean_step_speedup(self) -> float:
        return geomean([r.step_speedup for r in self.rows])

    @property
    def backtracking_geomean(self) -> float:
        return geomean([r.step_speedup for r in self.backtracking_rows])

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "geomean_step_speedup": round(self.geomean_step_speedup, 4),
            "backtracking_geomean": round(self.backtracking_geomean, 4),
            "backtracking_subset": [r.name for r in self.backtracking_rows],
            "workloads": [r.to_dict() for r in self.rows],
        }


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_workload(name: str) -> IndexedRow:
    """Run ``name`` under both PSI configurations and diff them."""
    from repro.eval.runner import run_spec

    faithful = run_spec(name, "faithful", record_trace=False)
    indexed = run_spec(name, "indexed", record_trace=False)
    stats = indexed.index_stats
    return IndexedRow(
        name=name,
        faithful_steps=faithful.steps,
        indexed_steps=indexed.steps,
        faithful_ms=faithful.time_ms,
        indexed_ms=indexed.time_ms,
        index_hits=stats.get("index_hits", 0),
        index_misses=stats.get("index_misses", 0),
        choicepoints_avoided=stats.get("choicepoints_avoided", 0),
        answers_equal=(answer_multiset(faithful.answers)
                       == answer_multiset(indexed.answers)),
    )


def generate(names: list[str] | None = None,
             jobs: int | None = None) -> IndexedReport:
    """Compare every workload (default: the full registry).

    ``jobs`` pre-warms both specs' cache tiers through
    :func:`repro.eval.runner.run_many` before the (then-free) serial
    comparison loop — ``psi-eval indexed --jobs N``.
    """
    from repro.workloads import all_workloads

    if names is None:
        names = sorted(all_workloads())
    if jobs and jobs > 1:
        from repro.eval.runner import run_many

        for spec in ("faithful", "indexed"):
            run_many(names, jobs=jobs, record_trace=False, spec=spec)
    return IndexedReport(rows=[compare_workload(name) for name in names])


def render(report: IndexedReport) -> str:
    header = (f"{'workload':<18} {'faithful':>12} {'indexed':>12} "
              f"{'steps×':>7} {'time×':>6} {'hits':>8} {'miss':>6} "
              f"{'CPs avoided':>11}  answers")
    lines = ["PSI clause indexing: faithful vs indexed configuration",
             "(steps are machine microsteps; 'CPs avoided' counts calls "
             "where selection left at most one candidate clause)",
             "", header, "-" * len(header)]
    for row in report.rows:
        mark = "=" if row.answers_equal else "DIVERGED"
        tag = " *" if row.name in BACKTRACKING_HEAVY else ""
        lines.append(
            f"{row.name + tag:<18} {row.faithful_steps:>12,} "
            f"{row.indexed_steps:>12,} {row.step_speedup:>6.2f}x "
            f"{row.time_speedup:>5.2f}x {row.index_hits:>8,} "
            f"{row.index_misses:>6,} {row.choicepoints_avoided:>11,}  "
            f"{mark}")
    lines.append("")
    lines.append(f"geomean step speedup: {report.geomean_step_speedup:.3f}x "
                 f"(all {len(report.rows)}); "
                 f"{report.backtracking_geomean:.3f}x on the "
                 f"backtracking-heavy subset (*)")
    if not report.ok:
        bad = [r.name for r in report.rows if not r.answers_equal]
        lines.append(f"ANSWER DIVERGENCE under indexing: {', '.join(bad)} "
                     "— run psi-eval crosscheck --specs faithful,indexed for "
                     "details")
    return "\n".join(lines)
