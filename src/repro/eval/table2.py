"""Table 2: execution step ratios of interpreter modules.

The four programs of the paper's Table 2 (window, 8 puzzle, BUP,
harmonizer) profiled by the firmware-module attribution of the stats
collector (see :mod:`repro.core.micro`), plus the builtin-call-rate
observations from §3.2.
"""

from __future__ import annotations

from repro.core.micro import Module
from repro.eval.report import Measured, derive, format_table, paired_rows

COLUMNS = [m.value for m in Module] + ["builtin_call_rate"]


def generate(programs: dict[str, str] | None = None) -> Measured:
    return derive("table2", programs)


def render(data: Measured) -> str:
    headers = ["program"] + [m.value for m in Module] + ["builtins/calls%"]
    return format_table(
        headers, paired_rows("table2", data, COLUMNS),
        title="Table 2: execution step ratios of interpreter modules (%)")
