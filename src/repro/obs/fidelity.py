"""Paper-drift scoring: one number for "how close are we to the paper?"

Every cell of Tables 1–7 and Figure 1 that the paper prints and the
reproduction measures is declared once in
:data:`repro.eval.paper_data.ARTIFACTS`, with its paper value and its
artifact's tolerance band (``ratio`` tables use relative error,
``percent`` tables absolute percentage points — see there for the
rationale).  :func:`score` compares each as measured-vs-paper error,
aggregated into per-table and overall fidelity scores.  The score is
the percentage of cells inside their band; ``drift`` is its
complement, and ``psi-eval fidelity`` exits non-zero when overall
drift exceeds a threshold, which is what lets CI gate on reproduction
fidelity the same way it gates on tests.

Scoring is pure — it takes the already-generated table results — so
it is unit-testable without executing workloads; :func:`collect` runs
the generators and scores everything.  The JSON document schema is
documented in ``docs/OBSERVABILITY.md`` ("Fidelity").
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

from repro.eval import paper_data

#: Every scoreable artifact, in paper order.
TABLES = ("table1", "table2", "table3", "table4", "table5",
          "table6", "table7", "figure1")

#: Default ``psi-eval fidelity`` gate: fail above this overall drift
#: (percent of cells outside their tolerance band).  The current
#: reproduction measures ~18.6 over all eight artifacts (~20.5 on the
#: CI subset without table1); 30 leaves headroom for calibration work
#: without letting a real regression through — ratchet it down as
#: calibration improves.
DEFAULT_MAX_DRIFT = 30.0

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CellDrift:
    """One published number vs its measured counterpart."""

    row: str                    # e.g. program or access-mode name
    col: str                    # e.g. module, area, or column name
    paper: float
    measured: float
    error: float                # kind-specific (relative or points)
    drift: float                # error / tolerance; <= 1.0 is in band

    @property
    def within(self) -> bool:
        return self.drift <= 1.0

    def to_dict(self) -> dict:
        return {"row": self.row, "col": self.col,
                "paper": self.paper, "measured": self.measured,
                "error": round(self.error, 4),
                "drift": round(self.drift, 4),
                "within": self.within}


@dataclass(frozen=True)
class TableFidelity:
    """All scored cells of one table/figure."""

    name: str
    kind: str                   # "ratio" | "percent"
    tolerance: float
    cells: tuple

    @property
    def within(self) -> int:
        return sum(cell.within for cell in self.cells)

    @property
    def score(self) -> float:
        """Percent of cells inside the tolerance band (100 = perfect)."""
        return 100.0 * self.within / len(self.cells) if self.cells else 100.0

    @property
    def drift(self) -> float:
        return 100.0 - self.score

    @property
    def mean_drift(self) -> float:
        """Mean normalised drift (1.0 = at the band edge on average)."""
        if not self.cells:
            return 0.0
        return sum(cell.drift for cell in self.cells) / len(self.cells)

    @property
    def worst(self) -> CellDrift | None:
        return max(self.cells, key=lambda cell: cell.drift, default=None)

    def to_dict(self, cell_limit: int | None = None) -> dict:
        """Plain-data form; ``cell_limit`` keeps only the worst N cells
        (the service's fidelity reply is bounded, the CLI emits all)."""
        cells = sorted(self.cells, key=lambda c: -c.drift)
        if cell_limit is not None:
            cells = cells[:cell_limit]
        return {"kind": self.kind, "tolerance": self.tolerance,
                "cells": len(self.cells), "within": self.within,
                "score": round(self.score, 2),
                "drift": round(self.drift, 2),
                "mean_drift": round(self.mean_drift, 4),
                "worst_cells": [cell.to_dict() for cell in cells]}


@dataclass(frozen=True)
class FidelityReport:
    """Per-table fidelity plus the overall aggregate."""

    tables: tuple
    threshold: float = DEFAULT_MAX_DRIFT

    @property
    def overall_score(self) -> float:
        """Equal-weight mean of the per-table scores."""
        if not self.tables:
            return 100.0
        return sum(t.score for t in self.tables) / len(self.tables)

    @property
    def overall_drift(self) -> float:
        return 100.0 - self.overall_score

    @property
    def passed(self) -> bool:
        return self.overall_drift <= self.threshold

    @property
    def total_cells(self) -> int:
        return sum(len(t.cells) for t in self.tables)

    @property
    def total_within(self) -> int:
        return sum(t.within for t in self.tables)

    def table(self, name: str) -> TableFidelity | None:
        for table in self.tables:
            if table.name == name:
                return table
        return None

    def to_dict(self, cell_limit: int | None = None) -> dict:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "threshold": self.threshold,
            "passed": self.passed,
            "overall": {"score": round(self.overall_score, 2),
                        "drift": round(self.overall_drift, 2),
                        "cells": self.total_cells,
                        "within": self.total_within},
            "tables": {t.name: t.to_dict(cell_limit) for t in self.tables},
        }

    def render(self) -> str:
        from repro.eval.report import format_table

        rows = []
        for table in self.tables:
            worst = table.worst
            worst_text = (f"{worst.row}/{worst.col} "
                          f"({worst.measured:g} vs paper {worst.paper:g})"
                          if worst is not None else "-")
            rows.append((table.name, table.kind, table.tolerance,
                         f"{table.within}/{len(table.cells)}",
                         round(table.score, 1), round(table.mean_drift, 2),
                         worst_text))
        text = format_table(
            ["table", "kind", "tolerance", "in band", "score",
             "mean drift", "worst cell"],
            rows, title="Fidelity vs the paper (score = % of cells in band)")
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{text}\n"
                f"overall: score {self.overall_score:.1f} "
                f"({self.total_within}/{self.total_cells} cells in band), "
                f"drift {self.overall_drift:.1f} "
                f"<= threshold {self.threshold:.1f}: {verdict}")


class SelectionError(ValueError):
    """:func:`collect` cannot score what was asked: an unknown table,
    or a run spec other than ``faithful``."""


# -- scoring -------------------------------------------------------------------

def _cell(kind: str, tolerance: float, row: str, col: str,
          paper: float, measured: float) -> CellDrift:
    if kind == "ratio":
        error = abs(measured - paper) / max(abs(paper), 1e-9)
    elif kind == "percent":
        error = abs(measured - paper)
    else:
        raise ValueError(f"unknown fidelity kind {kind!r}")
    return CellDrift(row=row, col=col, paper=float(paper),
                     measured=float(measured), error=error,
                     drift=error / tolerance)


def score(name: str, data) -> TableFidelity:
    """Score every declared cell of artifact ``name`` that has a paper
    value and that ``data`` (its ``generate()`` result) measured."""
    artifact = paper_data.ARTIFACTS[name]
    cells = []
    for cell in artifact.cells():
        measured = cell.measured(data) if cell.paper is not None else None
        if measured is not None:
            cells.append(_cell(artifact.kind, artifact.tolerance, cell.row,
                               cell.col, cell.paper, measured))
    return TableFidelity(name, artifact.kind, artifact.tolerance, tuple(cells))


(score_table1, score_table2, score_table3, score_table4, score_table5,
 score_table6, score_table7, score_figure1) = (
    functools.partial(score, name) for name in TABLES)


def collect(tables=None, threshold: float = DEFAULT_MAX_DRIFT) -> FidelityReport:
    """Generate the selected tables and score every cell.

    ``tables`` is an iterable of names from :data:`TABLES` (default:
    all of them — note ``table1`` also executes the DEC baseline, the
    expensive half; CI's cheap gate passes the subset without it).
    Generation goes through the run-cache tiers of
    :mod:`repro.eval.runner`.

    Fidelity is defined against the paper's machine, so scoring under
    any run spec but ``faithful`` fails loudly here — paper-drift
    numbers must never silently come from an optimized configuration.
    """
    from repro.eval.specs import assert_faithful
    selected = list(tables) if tables is not None else list(TABLES)
    unknown = [name for name in selected if name not in TABLES]
    if unknown:
        raise SelectionError(f"unknown fidelity table(s): "
                             f"{', '.join(unknown)} "
                             f"(choose from: {', '.join(TABLES)})")
    try:
        assert_faithful("fidelity scoring")
    except RuntimeError as exc:
        raise SelectionError(str(exc)) from exc
    return FidelityReport(
        tuple(score(name, importlib.import_module(f"repro.eval.{name}")
                    .generate())
              for name in TABLES if name in selected),
        threshold=threshold)
