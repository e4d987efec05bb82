"""The DEC-10 Prolog baseline: a WAM compiler + emulator with a
DEC-2060 cost model (the comparison system of Table 1)."""

from repro.baseline.isa import COSTS_NS, DYNAMIC_COSTS_NS, Instr, Op
from repro.baseline.machine import (
    BaselineConfig,
    BaselineRun,
    BaselineSolution,
    BaselineSolver,
    BaselineStats,
    WAMMachine,
)

__all__ = [
    "WAMMachine", "BaselineConfig", "BaselineRun", "BaselineStats",
    "BaselineSolver", "BaselineSolution",
    "Op", "Instr", "COSTS_NS", "DYNAMIC_COSTS_NS",
]
