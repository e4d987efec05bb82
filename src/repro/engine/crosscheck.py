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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.answers import Answer, answer_multiset, render_answer


@dataclass
class WorkloadCheck:
    """Outcome of crosschecking one workload."""

    name: str
    ok: bool
    detail: str = ""
    psi_answers: tuple[Answer, ...] = ()
    baseline_answers: tuple[Answer, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "psi_answers": [list(map(list, a)) for a in self.psi_answers],
            "baseline_answers": [list(map(list, a))
                                 for a in self.baseline_answers],
        }


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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "specs": list(self.specs),
            "checked": len(self.checks),
            "divergences": len(self.divergences),
            "divergent": self.divergent_names,
            "interrupted": self.interrupted,
            "skipped": list(self.skipped),
            "workloads": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        if set(self.specs) != {"faithful", "baseline"}:
            header = (f"differential crosscheck: {self.specs[0]} vs "
                      f"{self.specs[1]} run specs")
        else:
            header = "differential crosscheck: PSI vs DEC baseline"
        lines = [header, ""]
        width = max((len(c.name) for c in self.checks), default=4)
        for check in self.checks:
            status = "ok" if check.ok else "DIVERGED"
            line = f"  {check.name:<{width}}  {status}"
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        lines.append("")
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
                         baseline_answers=second.answers)


def crosscheck(names=None,
               specs=("faithful", "baseline")) -> CrosscheckReport:
    """Crosscheck ``names`` under the run-spec pair ``specs``.

    ``specs`` names any registered pair (``("faithful", "indexed")``,
    ``("faithful", "unfused")``, …).  ``names`` defaults to every
    shared workload, or to the *full* registry (``psi_only`` workloads
    included) when both specs run the PSI engine; such a pair is
    additionally checked against the DEC baseline on shared workloads.

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
    for index, name in enumerate(names):
        try:
            report.checks.append(
                crosscheck_workload_specs(name, spec_a, spec_b))
        except KeyboardInterrupt:
            report.interrupted = True
            report.skipped = names[index:]
            break
    return report
