"""Differential profiling: attribute a regression to its hotspot.

``psi-eval diff <baseline> <current>`` loads two saved profile
snapshots (the ``<name>.profile.json`` files ``psi-eval profile``
writes) and reports, per ``(predicate × module)`` pair, the microstep
delta between the two runs — plus the hotspots that are *new* in the
current run and the ones that *vanished*.  The deltas reconcile
exactly: each side's per-key steps sum to that run's total step count,
and the sum of all deltas equals the total-step delta (under test in
``tests/obs/test_diffprof.py``), so nothing a regression costs can
hide outside the report.

When both snapshots carry a metrics section, counter deltas (cache
hits/misses, per-module steps, …) are appended — the coarse view that
tells you *whether* something moved, above the profile view that tells
you *where*.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.obs.profile import MicroProfile

SNAPSHOT_KIND = "psi-profile-snapshot"
SNAPSHOT_SCHEMA = 1


# -- snapshot files (written by `psi-eval profile`) ---------------------------

def write_snapshot(path, name: str, observation) -> dict:
    """Persist one run's profile + metrics as a diffable snapshot."""
    data = {
        "kind": SNAPSHOT_KIND,
        "schema": SNAPSHOT_SCHEMA,
        "workload": name,
        "total_steps": observation.total_steps,
        "profile": observation.profile.to_dict(),
        "metrics": observation.metrics_snapshot,
    }
    pathlib.Path(path).write_text(json.dumps(data, indent=2, sort_keys=True)
                                  + "\n")
    return data


def read_snapshot(path) -> dict:
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("kind") != SNAPSHOT_KIND:
        raise ValueError(f"{path}: not a psi profile snapshot "
                         f"(kind={data.get('kind')!r})")
    return data


def is_snapshot_file(path) -> bool:
    try:
        return read_snapshot(path).get("kind") == SNAPSHOT_KIND
    except (OSError, ValueError):
        return False


# -- the diff -----------------------------------------------------------------

@dataclass(frozen=True)
class KeyDelta:
    """Microstep movement of one (predicate × module) pair."""

    predicate: str
    module: str
    base: int
    current: int

    @property
    def delta(self) -> int:
        return self.current - self.base

    @property
    def is_new(self) -> bool:
        return self.base == 0 and self.current > 0

    @property
    def vanished(self) -> bool:
        return self.current == 0 and self.base > 0


@dataclass(frozen=True)
class ProfileDiff:
    """Every pair of either run, with both sides' steps."""

    base_label: str
    current_label: str
    base_total: int
    current_total: int
    deltas: tuple

    @property
    def total_delta(self) -> int:
        return self.current_total - self.base_total

    @property
    def new_hotspots(self) -> list:
        return [d for d in self.deltas if d.is_new]

    @property
    def vanished_hotspots(self) -> list:
        return [d for d in self.deltas if d.vanished]

    def reconciles(self) -> bool:
        """Both sides' per-key sums equal their run totals — exactly."""
        return (sum(d.base for d in self.deltas) == self.base_total
                and sum(d.current for d in self.deltas) == self.current_total)

    def render(self, top: int = 15) -> str:
        from repro.eval.report import format_table

        ranked = sorted(self.deltas, key=lambda d: (-abs(d.delta),
                                                    d.predicate, d.module))
        rows = []
        for d in ranked[:top]:
            share = (100.0 * d.delta / self.base_total
                     if self.base_total else 0.0)
            marker = ("new" if d.is_new
                      else "gone" if d.vanished else "")
            rows.append((d.predicate, d.module, d.base, d.current,
                         d.delta, round(share, 2), marker))
        table = format_table(
            ["predicate", "module", "base", "current", "delta",
             "% of base", ""],
            rows,
            title=f"microstep deltas: {self.base_label} -> "
                  f"{self.current_label} (top {min(top, len(ranked))} "
                  f"of {len(ranked)} pairs by |delta|)")
        check = "reconciled" if self.reconciles() else "MISMATCH"
        summary = (f"totals: base {self.base_total} -> current "
                   f"{self.current_total} ({self.total_delta:+d} steps); "
                   f"per-pair sums {check}; "
                   f"{len(self.new_hotspots)} new pair(s), "
                   f"{len(self.vanished_hotspots)} vanished")
        return f"{table}\n{summary}"


def diff_profiles(base: MicroProfile, current: MicroProfile,
                  base_label: str = "baseline",
                  current_label: str = "current") -> ProfileDiff:
    keys = sorted(set(base.samples) | set(current.samples),
                  key=lambda k: (k[0], k[1].value))
    deltas = tuple(
        KeyDelta(predicate=predicate, module=module.value,
                 base=base.samples.get((predicate, module), 0),
                 current=current.samples.get((predicate, module), 0))
        for predicate, module in keys)
    return ProfileDiff(base_label=base_label, current_label=current_label,
                       base_total=base.total_steps,
                       current_total=current.total_steps,
                       deltas=deltas)


def diff_snapshot_files(base_path, current_path) -> str:
    """Load two snapshot files, render the profile diff (+ metrics deltas)."""
    base_data = read_snapshot(base_path)
    current_data = read_snapshot(current_path)
    diff = diff_profiles(
        MicroProfile.from_dict(base_data["profile"]),
        MicroProfile.from_dict(current_data["profile"]),
        base_label=base_data.get("workload") or str(base_path),
        current_label=current_data.get("workload") or str(current_path))
    sections = [diff.render()]
    metrics = _metrics_deltas(base_data.get("metrics"),
                              current_data.get("metrics"))
    if metrics:
        sections.append(metrics)
    return "\n\n".join(sections)


def _metrics_deltas(base: dict | None, current: dict | None) -> str | None:
    if not base or not current:
        return None
    from repro.eval.report import format_table

    rows = []
    for name in sorted(set(base) | set(current)):
        b = (base.get(name) or {})
        c = (current.get(name) or {})
        if b.get("kind") != "counter" and c.get("kind") != "counter":
            continue
        b_value = b.get("value", 0)
        c_value = c.get("value", 0)
        if b_value or c_value:
            rows.append((name, b_value, c_value, c_value - b_value))
    if not rows:
        return None
    return format_table(["metric", "base", "current", "delta"], rows,
                        title="counter metric deltas")
