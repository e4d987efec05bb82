"""Append-only run-history store: the evaluation's time series.

``psi-eval fidelity`` describes *one* moment; this store keeps the
trajectory.  Entries are one JSON object per line in
``results/history/history.jsonl`` (override the directory with
``$PSI_HISTORY_DIR``), appended and never rewritten, each stamped with
the wall-clock time, the git commit and the simulator code-version
hash (:func:`repro.eval.run_cache.code_version` — the
same hash that keys the run cache, so "same code version" means "same
deterministic results").

The store is schema-open: any producer may add entry kinds, and every
entry lists by stamp and kind.  ``psi-eval fidelity --append-history``
appends ``fidelity`` entries, the bounded fidelity digest (per-table
scores plus each table's worst cells).  Older ``bench`` entries, from
the retired pre-``perfbench`` harness, stay readable.

``psi-eval history show`` renders the series, ``psi-eval history
compare A B`` (and ``psi-eval diff`` on two history specs) reports
per-table fidelity deltas between any two entries.
Entry specs are integer indexes (``0`` oldest, ``-1`` newest) or git
SHA / timestamp prefixes.  The JSONL schema is documented in
``docs/OBSERVABILITY.md`` ("Fidelity & history").
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import subprocess
import time

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_DIR = "results/history"
FILENAME = "history.jsonl"


def git_sha() -> str | None:
    """The current commit, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class HistoryStore:
    """The append-only JSONL time series under ``results/history/``."""

    def __init__(self, root: str | pathlib.Path | None = None):
        self.root = pathlib.Path(
            root or os.environ.get("PSI_HISTORY_DIR") or DEFAULT_DIR)

    @property
    def path(self) -> pathlib.Path:
        return self.root / FILENAME

    # -- writing ---------------------------------------------------------------

    def append(self, kind: str, payload: dict) -> dict:
        """Stamp and append one entry; returns the stored object.

        Every entry records the active run spec alongside the code
        version, so a time series mixing faithful and optimized
        configurations can be disentangled after the fact.
        """
        from repro.eval.run_cache import code_version
        from repro.eval.specs import default_spec

        entry = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "git_sha": git_sha(),
            "code_version": code_version()[:16],
            "spec": default_spec().name,
            **payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fp:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    # -- reading ---------------------------------------------------------------

    def entries(self) -> list[dict]:
        """All entries, oldest first; corrupt lines are skipped loudly."""
        if not self.path.exists():
            return []
        entries = []
        for lineno, line in enumerate(self.path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                logger.warning("history %s:%d: skipping corrupt entry",
                               self.path, lineno)
        return entries

    def resolve(self, spec: str | int) -> dict:
        """An entry by index (``-1`` newest) or git-SHA/timestamp prefix."""
        entries = self.entries()
        if not entries:
            raise LookupError(f"no history entries under {self.root}")
        # Index first; an out-of-range number may still be a timestamp
        # prefix (e.g. "2026"), so fall through to prefix matching.
        out_of_range = False
        try:
            return entries[int(spec)]
        except (ValueError, TypeError):
            pass
        except IndexError:
            out_of_range = True
        text = str(spec)
        # Git's minimum SHA abbreviation: shorter specs (e.g. a bare
        # out-of-range index whose digit happens to open the current
        # commit SHA) must not silently prefix-match an entry.
        matches = [] if len(text) < 4 else [
            e for e in entries
            if (e.get("git_sha") or "").startswith(text)
            or (e.get("ts") or "").startswith(text)]
        if matches:
            return matches[-1]
        if out_of_range:
            raise LookupError(
                f"history index {spec} out of range "
                f"({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")
        raise LookupError(f"no history entry matches {text!r}")

    # -- rendering -------------------------------------------------------------

    def render(self, last: int | None = None) -> str:
        from repro.eval.report import format_table

        entries = self.entries()
        if not entries:
            return f"no history entries under {self.root}"
        start = len(entries) - last if last else 0
        rows = []
        for i, entry in enumerate(entries):
            if i < max(start, 0):
                continue
            overall = (entry.get("fidelity") or {}).get("overall") or {}
            rows.append((
                i, entry.get("ts", "-"),
                (entry.get("git_sha") or "-")[:9],
                entry.get("kind", "-"),
                overall.get("score", None),
                overall.get("drift", None),
            ))
        return format_table(
            ["#", "timestamp", "sha", "kind", "fidelity", "drift"],
            rows, title=f"run history ({self.path})")

    def compare(self, base_spec: str | int = -2,
                current_spec: str | int = -1) -> str:
        base = self.resolve(base_spec)
        current = self.resolve(current_spec)
        return render_entry_diff(base, current,
                                 base_label=str(base_spec),
                                 current_label=str(current_spec))


def render_entry_diff(base: dict, current: dict,
                      base_label: str = "baseline",
                      current_label: str = "current") -> str:
    """Per-table fidelity deltas between two entries."""
    from repro.eval.report import format_table

    lines = [f"history compare: {base_label} "
             f"({base.get('ts', '?')}, {(base.get('git_sha') or '?')[:9]}) "
             f"-> {current_label} "
             f"({current.get('ts', '?')}, {(current.get('git_sha') or '?')[:9]})"]

    base_fid = (base.get("fidelity") or {}).get("tables") or {}
    cur_fid = (current.get("fidelity") or {}).get("tables") or {}
    shared = [name for name in base_fid if name in cur_fid]
    if shared:
        rows = []
        for name in shared:
            b, c = base_fid[name]["score"], cur_fid[name]["score"]
            rows.append((name, b, c, round(c - b, 2)))
        b_overall = (base.get("fidelity") or {}).get("overall", {})
        c_overall = (current.get("fidelity") or {}).get("overall", {})
        if b_overall and c_overall:
            rows.append(("overall", b_overall["score"], c_overall["score"],
                         round(c_overall["score"] - b_overall["score"], 2)))
        lines.append(format_table(
            ["table", "base score", "current score", "delta"], rows,
            title="fidelity score deltas (positive = closer to the paper)"))

    if len(lines) == 1:
        lines.append("entries share no comparable sections")
    return "\n\n".join(lines)

