"""Profiling over the microinstruction stream.

The PSI's firmware profile (Table 2) answers "which *interpreter
module* consumes the steps"; what it cannot answer — and what the
optimizer work queued behind this subsystem needs — is "which
*workload predicate* makes that module hot".  This profiler attributes
every microstep of a run to a ``(predicate, module)`` pair:

* **predicate** — the workload procedure being resolved when the step
  executed (``functor/arity``, e.g. ``ids/4``), maintained by the
  machine as execution context (:attr:`StatsCollector.predicate`);
* **module** — the firmware interpreter module (Table 2's axis:
  control / unify / trail / get_arg / cut / built).

Attribution comes from
:class:`~repro.obs.session.ObservedStatsCollector`, whose billing walk
sums the precomputed per-module steps of every logged bill between
one predicate store and the next, so it is exact: the profile total equals ``stats.total_steps`` (under test in
``tests/obs/test_profile.py``).

Outputs:

* :meth:`MicroProfile.collapsed_stacks` — the collapsed-stack format
  consumed by every flamegraph renderer (``flamegraph.pl``,
  speedscope, inferno): one ``frame;frame value`` line per stack;
* :meth:`MicroProfile.top_table` — a text top-N report for terminals
  (the ``psi-eval profile`` output).
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import IO

from repro.core.micro import Module

#: Predicate label used before the first user-predicate dispatch.
UNATTRIBUTED = "(startup)"


class MicroProfile:
    """Microstep attribution to (predicate, module) pairs."""

    def __init__(self):
        self.samples: _Counter = _Counter()   # (predicate, module) -> steps

    # -- recording (called from ObservedStatsCollector) -----------------------

    def add(self, predicate: str, module: Module, steps: int) -> None:
        """Attribute ``steps`` microsteps."""
        self.samples[(predicate, module)] += steps

    # -- views ----------------------------------------------------------------

    @property
    def total_steps(self) -> int:
        return sum(self.samples.values())

    def by_predicate(self) -> _Counter:
        totals: _Counter = _Counter()
        for (predicate, _module), steps in self.samples.items():
            totals[predicate] += steps
        return totals

    def by_module(self) -> _Counter:
        totals: _Counter = _Counter()
        for (_predicate, module), steps in self.samples.items():
            totals[module] += steps
        return totals

    def merge(self, other: "MicroProfile") -> None:
        self.samples.update(other.samples)

    # -- snapshot (differential profiling, `psi-eval diff`) --------------------

    def to_dict(self) -> dict:
        """Plain-data snapshot: sorted ``[predicate, module, steps]``
        triples plus the total, losslessly invertible by :meth:`from_dict`.

        ``sample_interval`` is always 1 (every step is attributed); the
        field stays so snapshot files keep their bytes and shape."""
        samples = sorted(
            ([predicate, module.value, steps]
             for (predicate, module), steps in self.samples.items() if steps),
        )
        return {"kind": "micro_profile", "schema": 1,
                "sample_interval": 1,
                "total_steps": self.total_steps,
                "samples": samples}

    @classmethod
    def from_dict(cls, data: dict) -> "MicroProfile":
        profile = cls()
        for predicate, module_value, steps in data["samples"]:
            profile.samples[(predicate, Module(module_value))] += steps
        return profile

    def collapsed_stacks(self, root: str | None = None) -> list[str]:
        """Collapsed-stack lines: ``[root;]predicate;module steps``.

        Deterministic order (sorted by stack name) so repeated runs of
        the same workload produce identical files.
        """
        prefix = f"{root};" if root else ""
        lines = [
            f"{prefix}{predicate};{module.value} {steps}"
            for (predicate, module), steps in self.samples.items() if steps
        ]
        return sorted(lines)

    def write_collapsed(self, fp: IO[str], root: str | None = None) -> int:
        lines = self.collapsed_stacks(root)
        for line in lines:
            fp.write(line + "\n")
        return len(lines)

    def top_table(self, top: int = 10) -> str:
        """Text report: top-N predicates by steps, with module split.

        A predicate's split names its three busiest modules; modules
        with equal steps appear in :class:`~repro.core.micro.Module`
        order.
        """
        total = self.total_steps
        if not total:
            return "no samples"
        per_pred: dict[str, _Counter] = {}
        for (predicate, module), steps in self.samples.items():
            per_pred.setdefault(predicate, _Counter())[module] += steps
        ranked = sorted(per_pred.items(),
                        key=lambda kv: (-sum(kv[1].values()), kv[0]))
        width = max((len(p) for p, _ in ranked[:top]), default=9)
        width = max(width, len("predicate"))
        lines = [f"{'predicate':<{width}}  {'steps':>12}  {'%':>6}  modules"]
        for predicate, modules in ranked[:top]:
            steps = sum(modules.values())
            busiest = sorted(modules.items(),
                             key=lambda item: (-item[1], item[0].idx))[:3]
            split = ", ".join(f"{module.value} {100.0 * n / steps:.0f}%"
                              for module, n in busiest)
            lines.append(f"{predicate:<{width}}  {steps:>12}  "
                         f"{100.0 * steps / total:>5.1f}%  {split}")
        shown = sum(sum(m.values()) for _, m in ranked[:top])
        if len(ranked) > top:
            lines.append(f"{'(other)':<{width}}  {total - shown:>12}  "
                         f"{100.0 * (total - shown) / total:>5.1f}%")
        lines.append(f"{'total':<{width}}  {total:>12}  100.0%")
        return "\n".join(lines)
