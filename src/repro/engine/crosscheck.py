"""Differential answer cross-validation between run specs.

The PSI interpreter and the DEC baseline are independent
implementations of the same language; any workload whose canonical
answers differ between them has found a bug in one of the machines (or
a semantic divergence between the dispatch tables).  This module runs
workloads under two registered run specs (:mod:`repro.eval.specs`;
``faithful`` vs ``baseline`` by default) through the cache-aware
:func:`repro.eval.runner.run_spec` path and compares

* the canonical answer multisets (order-insensitive; variable names
  canonicalized, so engine-internal naming cannot cause noise), and
* the side-effect counter snapshots (how failure-driven all-solutions
  loops report their result counts).

Exceptions raised while running a workload under either spec are
folded into the report as divergences rather than aborting the sweep —
a crash on one side *is* a differential finding.

``psi-eval crosscheck`` (see :mod:`repro.eval.cli`) renders the report
and exits non-zero on any divergence; ``--report FILE`` writes the
machine-readable form for CI artifact upload.  ``--specs A,B`` picks
any other pair: ``--specs faithful,indexed`` validates the
clause-indexed configuration against the faithful one.  When both
specs run the PSI engine the default scope widens to the *full*
registry (``psi_only`` workloads included) and, on shared workloads,
the pair is additionally checked against the independent DEC baseline.
This is the semantic gate for every optimisation spec: a configuration
may only ever change *how* answers are found, never the answer
multiset.

A PSI pair also reports what the second configuration bought: per
workload, the modelled microsteps on each side, the step and
modelled-time ratios (first / second), the second run's
clause-selection counters (index hits, misses, choicepoints avoided),
and the geomean step ratio over the sweep.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.engine.answers import Answer, answer_multiset, render_answer

logger = logging.getLogger(__name__)

#: The second run's clause-selection counters a PSI pair reports.
INDEX_COUNTERS = ("index_hits", "index_misses", "choicepoints_avoided")


@dataclass
class WorkloadCheck:
    """Outcome of crosschecking one workload."""

    name: str
    ok: bool
    detail: str = ""
    psi_answers: tuple[Answer, ...] = ()
    baseline_answers: tuple[Answer, ...] = ()
    #: The runs compared, under the first and the second spec; ``None``
    #: when a side crashed.
    first: object = field(default=None, repr=False)
    second: object = field(default=None, repr=False)

    @property
    def has_runs(self) -> bool:
        return self.first is not None and self.second is not None

    @property
    def step_ratio(self) -> float:
        """First spec's modelled microsteps over the second's."""
        return (self.first.steps / self.second.steps
                if self.second.steps else 0.0)

    @property
    def time_ratio(self) -> float:
        """First spec's modelled time over the second's."""
        return (self.first.time_ms / self.second.time_ms
                if self.second.time_ms else 0.0)

    @property
    def index_counters(self) -> tuple[int, ...]:
        """The second run's :data:`INDEX_COUNTERS` (zero when faithful)."""
        return tuple(self.second.index_stats.get(key, 0)
                     for key in INDEX_COUNTERS)

    def to_dict(self, steps: bool = False) -> dict:
        """The JSON form; ``steps`` adds the PSI-pair step columns."""
        payload = {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "psi_answers": [list(map(list, a)) for a in self.psi_answers],
            "baseline_answers": [list(map(list, a))
                                 for a in self.baseline_answers],
        }
        if steps and self.has_runs:
            payload.update({
                "steps": [self.first.steps, self.second.steps],
                "step_ratio": round(self.step_ratio, 4),
                "time_ratio": round(self.time_ratio, 4),
            })
            payload.update(zip(INDEX_COUNTERS, self.index_counters))
        return payload


@dataclass
class CrosscheckReport:
    """Every workload's verdict plus convenience accessors."""

    checks: list[WorkloadCheck] = field(default_factory=list)
    #: True when the sweep was cut short (Ctrl-C): the report covers
    #: only the workloads checked so far and must not read as a clean
    #: full-sweep pass.
    interrupted: bool = False
    #: Workloads the interrupted sweep never reached.
    skipped: list[str] = field(default_factory=list)
    #: The run-spec pair the sweep compared (names), e.g.
    #: ``("faithful", "baseline")`` or ``("faithful", "indexed")``.
    specs: tuple[str, str] = ("faithful", "baseline")

    @property
    def divergences(self) -> list[WorkloadCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def divergent_names(self) -> list[str]:
        return [c.name for c in self.divergences]

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.interrupted

    @property
    def psi_pair(self) -> bool:
        """Both specs run the PSI engine, so the report carries the
        step and clause-selection columns."""
        from repro.eval.specs import get_spec

        return all(get_spec(spec).engine == "psi" for spec in self.specs)

    @property
    def geomean_step_ratio(self) -> float:
        return geomean([c.step_ratio for c in self.checks if c.has_runs])

    def to_dict(self) -> dict:
        psi_pair = self.psi_pair
        payload = {
            "ok": self.ok,
            "specs": list(self.specs),
            "checked": len(self.checks),
            "divergences": len(self.divergences),
            "divergent": self.divergent_names,
            "interrupted": self.interrupted,
            "skipped": list(self.skipped),
            "workloads": [c.to_dict(steps=psi_pair) for c in self.checks],
        }
        if psi_pair:
            payload["geomean_step_ratio"] = round(self.geomean_step_ratio, 4)
        return payload

    def render(self) -> str:
        if set(self.specs) != {"faithful", "baseline"}:
            header = (f"differential crosscheck: {self.specs[0]} vs "
                      f"{self.specs[1]} run specs")
        else:
            header = "differential crosscheck: PSI vs DEC baseline"
        psi_pair = self.psi_pair
        first, second = self.specs
        lines = [header]
        if psi_pair:
            lines.append(f"(steps are machine microsteps; steps× and time× "
                         f"are {first}/{second}; hits, miss and CPs avoided "
                         f"are {second}'s clause-selection counters)")
        lines.append("")
        width = max((len(c.name) for c in self.checks), default=4)
        if psi_pair:
            width = max(width, len("workload"))
            columns = (f"  {'workload':<{width}}  {'status':<8}  "
                       f"{first:>12} {second:>12} {'steps×':>7} "
                       f"{'time×':>6} {'hits':>8} {'miss':>6} "
                       f"{'CPs avoided':>11}")
            lines += [columns, "  " + "-" * (len(columns) - 2)]
        for check in self.checks:
            status = "ok" if check.ok else "DIVERGED"
            line = f"  {check.name:<{width}}  {status}"
            if psi_pair and check.has_runs:
                hits, misses, avoided = check.index_counters
                line = (f"  {check.name:<{width}}  {status:<8}  "
                        f"{check.first.steps:>12,} {check.second.steps:>12,} "
                        f"{check.step_ratio:>6.2f}x {check.time_ratio:>5.2f}x "
                        f"{hits:>8,} {misses:>6,} {avoided:>11,}")
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        lines.append("")
        measured = sum(c.has_runs for c in self.checks)
        if psi_pair and measured:
            lines.append(f"geomean step ratio {first}/{second}: "
                         f"{self.geomean_step_ratio:.3f}x over {measured} "
                         "workload(s)")
        if self.interrupted:
            lines.append(f"sweep INTERRUPTED after {len(self.checks)} "
                         f"workload(s); {len(self.skipped)} never ran"
                         + (f" ({', '.join(self.skipped)})"
                            if self.skipped else ""))
        if not self.divergences:
            if not self.interrupted:
                lines.append(f"{len(self.checks)} workload(s) checked, "
                             "zero answer divergences")
        else:
            lines.append(f"{len(self.divergences)} of {len(self.checks)} "
                         "workload(s) DIVERGED between the engines")
            lines.append("")
            lines.append("replay a divergence microstep-by-microstep with:")
            for name in self.divergent_names:
                lines.append(f"  psi-eval debug --diff {name}")
        return "\n".join(lines)


def _diff_runs(first, second, first_label: str, second_label: str) -> str:
    """How two runs differ: answer multisets first, then counters
    (empty when they agree)."""
    first_set = answer_multiset(first.answers)
    second_set = answer_multiset(second.answers)
    if first_set != second_set:
        only_first = [a for a in first_set if a not in second_set]
        only_second = [a for a in second_set if a not in first_set]
        parts = []
        if len(first_set) != len(second_set):
            parts.append(f"{len(first_set)} {first_label} answer(s) vs "
                         f"{len(second_set)} {second_label} answer(s)")
        for label, only in ((first_label, only_first),
                            (second_label, only_second)):
            if only:
                parts.append(f"{label} only: " + " | ".join(
                    render_answer(a) for a in only[:3]))
        return "; ".join(parts)
    if first.counters == second.counters:
        return ""
    keys = sorted(set(first.counters) | set(second.counters))
    diffs = [f"{key}: {first_label}={first.counters.get(key)} "
             f"{second_label}={second.counters.get(key)}"
             for key in keys
             if first.counters.get(key) != second.counters.get(key)]
    return "counters differ — " + ", ".join(diffs)


def crosscheck_workload_specs(name: str, spec_a, spec_b) -> WorkloadCheck:
    """Run one workload under two run specs and compare canonical results.

    When both specs run the PSI engine and the workload is shared, the
    first spec's results are additionally compared against the DEC
    baseline — an independent implementation is a stronger oracle than
    two configurations of one machine.  ``psi_answers`` carries the
    first spec's answers, ``baseline_answers`` the second's.
    """
    from repro.eval.runner import run_spec
    from repro.eval.specs import get_spec
    from repro.workloads import get

    spec_a, spec_b = get_spec(spec_a), get_spec(spec_b)
    try:
        first = run_spec(name, spec_a, record_trace=False)
    except Exception as exc:
        return WorkloadCheck(name, ok=False,
                             detail=f"{spec_a.name} run failed: {exc}")
    try:
        second = run_spec(name, spec_b, record_trace=False)
    except Exception as exc:
        return WorkloadCheck(name, ok=False,
                             detail=f"{spec_b.name} run failed: {exc}")

    detail = _diff_runs(first, second, spec_a.name, spec_b.name)
    if (not detail and spec_a.engine == "psi" and spec_b.engine == "psi"
            and not get(name).psi_only):
        try:
            baseline = run_spec(name, "baseline")
        except Exception as exc:
            return WorkloadCheck(name, ok=False,
                                 detail=f"baseline run failed: {exc}")
        detail = _diff_runs(first, baseline, spec_a.name, "baseline")
    return WorkloadCheck(name, ok=not detail, detail=detail,
                         psi_answers=first.answers,
                         baseline_answers=second.answers,
                         first=first, second=second)


def geomean(values: list[float]) -> float:
    """Geometric mean of the positive ``values`` (0.0 when none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def crosscheck(names=None, specs=("faithful", "baseline"),
               jobs: int | None = None) -> CrosscheckReport:
    """Crosscheck ``names`` under the run-spec pair ``specs``.

    ``specs`` names any registered pair (``("faithful", "indexed")``,
    ``("faithful", "unfused")``, …).  ``names`` defaults to every
    shared workload, or to the *full* registry (``psi_only`` workloads
    included) when both specs run the PSI engine; such a pair is
    additionally checked against the DEC baseline on shared workloads.
    ``jobs`` pre-warms both specs' cache tiers on that many processes
    through :func:`repro.eval.runner.run_many` before the serial
    comparison loop (``psi-eval crosscheck --jobs N``).

    A ``KeyboardInterrupt`` mid-sweep does not discard the verdicts
    already gathered: the partial report comes back flagged
    ``interrupted`` (and therefore not ``ok``), listing the workloads
    never reached — so ``psi-eval crosscheck --report`` still writes
    the divergences found so far when a long sweep is cut short.
    """
    from repro.eval.specs import get_spec
    from repro.workloads import all_workloads, shared_workloads

    spec_a, spec_b = (get_spec(spec) for spec in specs)
    if names is None:
        names = (sorted(all_workloads())
                 if spec_a.engine == "psi" and spec_b.engine == "psi"
                 else [w.name for w in shared_workloads()])
    report = CrosscheckReport(specs=(spec_a.name, spec_b.name))
    names = list(names)
    if jobs and jobs > 1:
        from repro.eval.runner import run_many

        for spec in (spec_a, spec_b):
            try:
                run_many(names, jobs=jobs, record_trace=False, spec=spec)
            except Exception as exc:
                # The sweep below reruns the failing workload and
                # reports it as a divergence.
                logger.warning("crosscheck: pre-warming %s stopped: %s",
                               spec.name, exc)
    for index, name in enumerate(names):
        try:
            report.checks.append(
                crosscheck_workload_specs(name, spec_a, spec_b))
        except KeyboardInterrupt:
            report.interrupted = True
            report.skipped = names[index:]
            break
    return report
