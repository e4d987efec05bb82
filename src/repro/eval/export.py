"""Machine-readable export of the evaluation artifacts.

``to_dict`` converters turn the table/figure result objects into plain
JSON-serialisable structures, and :func:`write_json` /
:func:`write_csv` persist them — for plotting Figure 1 elsewhere or
diffing runs across calibrations.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Iterable

from repro.core.micro import BranchOp, WFMode
from repro.eval.ablations import AblationResults
from repro.eval.figure1 import Figure1Result
from repro.eval.table1 import Table1Row
from repro.eval.table2 import MODULE_ORDER, Table2Row
from repro.eval.table3 import Table3Row
from repro.eval.table4 import AREA_ORDER, Table4Row
from repro.eval.table5 import Table5Row
from repro.eval.table6 import Table6Result
from repro.eval.table7 import Table7Result


def table1_to_dict(rows: Iterable[Table1Row]) -> list[dict]:
    return [{
        "id": row.paper_id, "program": row.title,
        "psi_ms": row.psi_ms, "dec_ms": row.dec_ms,
        "ratio": row.ratio, "paper_ratio": row.paper_ratio,
        "psi_inferences": row.psi_inferences,
    } for row in rows]


def table2_to_dict(rows: Iterable[Table2Row]) -> list[dict]:
    return [{
        "program": row.program,
        **{m.value: row.ratios[m] for m in MODULE_ORDER},
        "builtin_call_rate": row.builtin_call_rate,
        "paper": row.paper,
    } for row in rows]


def table3_to_dict(rows: Iterable[Table3Row]) -> list[dict]:
    return [{
        "program": row.program, "read": row.read,
        "write_stack": row.write_stack, "write": row.write,
        "write_total": row.write_total, "total": row.total,
    } for row in rows]


def table4_to_dict(rows: Iterable[Table4Row]) -> list[dict]:
    return [{
        "program": row.program,
        **{area.label: row.ratios[area] for area in AREA_ORDER},
    } for row in rows]


def table5_to_dict(rows: Iterable[Table5Row]) -> list[dict]:
    return [{
        "program": row.program,
        **{area.label: row.ratios[area] for area in AREA_ORDER},
        "total": row.total,
    } for row in rows]


def table6_to_dict(result: Table6Result) -> dict:
    return {
        "fields": {
            field: {mode.value: list(values)
                    for mode, values in table.items()}
            for field, table in result.table.items()
        },
        "totals": result.totals,
        "direct_share": result.direct_share,
        "auto_increment_ratio": result.auto_increment_ratio,
    }


def table7_to_dict(result: Table7Result) -> dict:
    return {
        "ratios": {program: {op.value: value for op, value in ratios.items()}
                   for program, ratios in result.ratios.items()},
        "branch_rates": result.branch_rates,
    }


def figure1_to_dict(result: Figure1Result) -> list[dict]:
    return [{
        "capacity_words": point.capacity_words,
        "hit_ratio": point.hit_ratio,
        "improvement_percent": point.improvement_percent,
    } for point in result.points]


def ablations_to_dict(results: AblationResults) -> dict:
    return {
        "associativity": {
            name: {"two_sets": cmp.improvement_a,
                   "one_set": cmp.improvement_b,
                   "loss_percent": cmp.relative_loss_percent}
            for name, cmp in results.associativity.items()
        },
        "write_policy": {
            "store_in": results.write_policy.improvement_a,
            "store_through": results.write_policy.improvement_b,
            "advantage_percent": results.write_policy.relative_loss_percent,
        },
    }


def history_to_rows(entries: list[dict]) -> list[dict]:
    """Flatten run-history entries into a CSV-able time series.

    One row per entry: the stamp columns plus the fidelity overall
    score/drift (empty when the entry has no fidelity section) — the
    shape plotting tools want for trend lines.
    """
    rows = []
    for i, entry in enumerate(entries):
        overall = (entry.get("fidelity") or {}).get("overall") or {}
        rows.append({
            "index": i,
            "ts": entry.get("ts", ""),
            "kind": entry.get("kind", ""),
            "git_sha": (entry.get("git_sha") or "")[:12],
            "code_version": entry.get("code_version", ""),
            "fidelity_score": overall.get("score", ""),
            "fidelity_drift": overall.get("drift", ""),
        })
    return rows


def write_json(data, path: str | pathlib.Path) -> None:
    """Write any of the ``*_to_dict`` results as JSON."""
    pathlib.Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def write_csv(rows: list[dict], path: str | pathlib.Path) -> None:
    """Write a list-of-dicts table as CSV (column order from first row)."""
    if not rows:
        pathlib.Path(path).write_text("")
        return
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in rows[0]})
