"""Paper-drift scoring: one number for "how close are we to the paper?"

Every cell of Tables 1–7 and Figure 1 that the paper prints and the
reproduction measures is compared as measured-vs-paper error, judged
against the per-table tolerance band declared in
:data:`repro.eval.paper_data.FIDELITY_BANDS` (``ratio`` tables use
relative error, ``percent`` tables absolute percentage points — see
there for the rationale), and aggregated into per-table and overall
fidelity scores.  The score is the percentage of cells inside their
band; ``drift`` is its complement, and ``psi-eval fidelity`` exits
non-zero when overall drift exceeds a threshold, which is what lets CI
gate on reproduction fidelity the same way it gates on tests.

The scoring functions are pure — they take the already-generated table
results — so they are unit-testable without executing workloads;
:func:`collect` is the convenience wrapper that runs the generators
(through the run-cache tiers of :mod:`repro.eval.runner`) and scores
everything.  The JSON document schema is documented in
``docs/OBSERVABILITY.md`` ("Fidelity").
"""

from __future__ import annotations

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


# -- cell construction --------------------------------------------------------

def _band(table: str) -> tuple[str, float]:
    band = paper_data.FIDELITY_BANDS[table]
    return band["kind"], band["tolerance"]


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


def _score(table: str, triples) -> TableFidelity:
    """Build a TableFidelity from ``(row, col, paper, measured)`` tuples."""
    kind, tolerance = _band(table)
    cells = tuple(_cell(kind, tolerance, row, col, paper, measured)
                  for row, col, paper, measured in triples)
    return TableFidelity(table, kind, tolerance, cells)


# -- per-table scorers (pure: take generated results) -------------------------

def score_table1(rows) -> TableFidelity:
    """Table 1: the DEC/PSI ratio per benchmark."""
    return _score("table1", [(r.name, "dec_over_psi", r.paper_ratio, r.ratio)
                             for r in rows])


def score_table2(rows) -> TableFidelity:
    """Table 2: module step ratios, plus the §3.2 builtin call rates."""
    from repro.core.micro import Module

    triples = []
    for row in rows:
        for module_name, paper_value in row.paper.items():
            triples.append((row.program, module_name, paper_value,
                            row.ratios[Module(module_name)]))
        paper_rate = paper_data.BUILTIN_CALL_RATE.get(row.program)
        if paper_rate is not None:
            triples.append((row.program, "builtin_call_rate",
                            paper_rate, row.builtin_call_rate))
    return _score("table2", triples)


def score_table3(rows) -> TableFidelity:
    """Table 3: cache command rates (% of all steps)."""
    triples = []
    for row in rows:
        if row.paper is None:
            continue
        read, write_stack, write, write_total, total = row.paper
        for col, paper, measured in (
                ("read", read, row.read),
                ("write_stack", write_stack, row.write_stack),
                ("write", write, row.write),
                ("write_total", write_total, row.write_total),
                ("total", total, row.total)):
            triples.append((row.program, col, paper, measured))
    return _score("table3", triples)


def score_table4(rows) -> TableFidelity:
    """Table 4: per-area access frequencies."""
    from repro.eval.table4 import AREA_ORDER

    triples = []
    for row in rows:
        if row.paper is None:
            continue
        for area, paper in zip(AREA_ORDER, row.paper):
            triples.append((row.program, area.label, paper, row.ratios[area]))
    return _score("table4", triples)


def score_table5(rows) -> TableFidelity:
    """Table 5: per-area cache hit ratios plus the total."""
    from repro.eval.table4 import AREA_ORDER

    triples = []
    for row in rows:
        if row.paper is None:
            continue
        for area, paper in zip(AREA_ORDER, row.paper[:-1]):
            triples.append((row.program, area.label, paper, row.ratios[area]))
        triples.append((row.program, "total", row.paper[-1], row.total))
    return _score("table5", triples)


def score_table6(result) -> TableFidelity:
    """Table 6: WF access-mode frequencies (both %-of-accesses and
    %-of-steps where the paper prints them) plus the totals row."""
    from repro.core.micro import WFMode

    triples = []
    for mode_value, paper_row in paper_data.TABLE6.items():
        mode = WFMode(mode_value)
        for i, field in enumerate(("source1", "source2", "dest")):
            paper_wf, paper_steps = paper_row[2 * i], paper_row[2 * i + 1]
            if paper_wf is None:
                continue
            measured_wf, measured_steps = result.table[field][mode]
            triples.append((mode_value, f"{field}.wf", paper_wf, measured_wf))
            triples.append((mode_value, f"{field}.steps",
                            paper_steps, measured_steps))
    for field, paper_total in paper_data.TABLE6_TOTALS.items():
        triples.append(("total", f"{field}.steps", paper_total,
                        result.totals[field]))
    return _score("table6", triples)


def score_table7(result) -> TableFidelity:
    """Table 7: branch-operation frequencies per program."""
    triples = []
    for program, ratios in result.ratios.items():
        for op, measured in ratios.items():
            paper = paper_data.TABLE7.get(op.value, {}).get(program)
            if paper is None:
                continue
            triples.append((op.value, program, paper, measured))
    return _score("table7", triples)


def score_figure1(result) -> TableFidelity:
    """Figure 1: the saturation capacity of the cache sweep."""
    return _score("figure1", [
        ("window", "saturation_words",
         paper_data.FIGURE1_SATURATION_WORDS, result.saturation_capacity)])


# -- collection (runs the generators through the cache tiers) -----------------

def collect(tables=None, threshold: float = DEFAULT_MAX_DRIFT) -> FidelityReport:
    """Generate the selected tables and score every cell.

    ``tables`` is an iterable of names from :data:`TABLES` (default:
    all of them — note ``table1`` also executes the DEC baseline, the
    expensive half; CI's cheap gate passes the subset without it).

    Fidelity is defined against the paper's machine, so scoring under
    any run spec but ``faithful`` fails loudly here — paper-drift
    numbers must never silently come from an optimized configuration.
    """
    from repro.eval.specs import assert_faithful
    assert_faithful("fidelity scoring")
    selected = list(tables) if tables is not None else list(TABLES)
    unknown = [name for name in selected if name not in TABLES]
    if unknown:
        raise ValueError(f"unknown fidelity table(s): {', '.join(unknown)} "
                         f"(choose from: {', '.join(TABLES)})")

    def _run(name: str) -> TableFidelity:
        from repro.eval import (ablations, figure1, table1, table2, table3,
                                table4, table5, table6, table7)  # noqa: F401
        generators = {
            "table1": lambda: score_table1(table1.generate()),
            "table2": lambda: score_table2(table2.generate()),
            "table3": lambda: score_table3(table3.generate()),
            "table4": lambda: score_table4(table4.generate()),
            "table5": lambda: score_table5(table5.generate()),
            "table6": lambda: score_table6(table6.generate()),
            "table7": lambda: score_table7(table7.generate()),
            "figure1": lambda: score_figure1(figure1.generate()),
        }
        return generators[name]()

    ordered = [name for name in TABLES if name in selected]
    return FidelityReport(tuple(_run(name) for name in ordered),
                          threshold=threshold)
