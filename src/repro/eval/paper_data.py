"""The paper's published numbers, transcribed, and the cells measured
against them.

Every table and figure of the evaluation section, as printed.  OCR
damage in the source scan was repaired against in-text statements
(e.g. Table 5's window rows; the text says most ratios exceed 96%
except the WINDOWs).

:data:`ARTIFACTS` declares, once per table and figure, the workloads
it runs, its fidelity band and every cell it measures.  Tables 2–7 are
derived from those declarations by one loop
(:func:`repro.eval.report.derive`), their renders read paper values
from them, and :mod:`repro.obs.fidelity` scores every declared cell
that has a paper value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.memory import Area
from repro.core.micro import NO_OPERATION_OPS, BranchOp, CacheCmd, Module, WFMode

# -- Table 1: execution time (ms) on PSI and DEC-2060, and DEC/PSI ratio ----

TABLE1 = {
    # name: (psi_ms, dec_ms, dec_over_psi)
    "nreverse": (13.6, 9.48, 0.70),
    "qsort": (15.2, 14.6, 0.96),
    "tree": (51.7, 61.1, 1.18),
    "lisp-tarai": (4024.0, 4360.0, 1.08),
    "lisp-fib": (369.0, 402.0, 1.09),
    "lisp-nreverse": (173.0, 194.0, 1.12),
    "queens-one": (96.9, 97.5, 1.01),
    "queens-all": (1570.0, 1580.0, 1.01),
    "reverse-function": (38.2, 41.7, 1.09),
    "slow-reverse": (99.4, 89.0, 0.90),
    "bup-1": (43.0, 52.0, 1.21),
    "bup-2": (139.0, 194.0, 1.40),
    "bup-3": (309.0, 424.0, 1.37),
    "harmonizer-1": (657.0, 1040.0, 1.58),
    "harmonizer-2": (1879.0, 2670.0, 1.42),
    "harmonizer-3": (24119.0, 31390.0, 1.30),
    "lcp-1": (379.0, 295.0, 0.78),
    "lcp-2": (1387.0, 1071.0, 0.77),
    "lcp-3": (2130.0, 1656.0, 0.78),
}

# -- Table 2: interpreter module step ratios (%) ------------------------------

TABLE2 = {
    # program: {module: percent}
    "window": {"control": 31.1, "unify": 17.1, "trail": 2.0,
               "get_arg": 13.6, "cut": 10.0, "built": 26.2},
    "puzzle8": {"control": 27.5, "unify": 11.0, "trail": 7.5,
                "get_arg": 22.7, "cut": 0.0, "built": 31.3},
    "bup": {"control": 22.3, "unify": 43.0, "trail": 4.7,
            "get_arg": 5.2, "cut": 5.6, "built": 19.2},
    "harmonizer": {"control": 25.5, "unify": 46.4, "trail": 5.4,
                   "get_arg": 7.3, "cut": 4.0, "built": 11.0},
}

# -- Table 3: cache command rates (% of all microinstruction steps) -----------

TABLE3 = {
    # program: (read, write_stack, write, write_total, total)
    "window-1": (15.2, 3.5, 1.2, 4.7, 19.9),
    "window-2": (15.2, 3.0, 1.1, 4.1, 19.7),
    "window-3": (17.6, 3.9, 1.4, 5.3, 22.8),
    "puzzle8": (9.9, 3.2, 2.8, 6.1, 16.0),
    "bup": (15.6, 3.5, 2.2, 5.7, 21.3),
    "harmonizer": (15.3, 4.6, 2.2, 6.8, 22.1),
    "lcp": (17.0, 3.9, 2.2, 6.1, 23.1),
}

# -- Table 4: access frequency per memory area (%) ------------------------------

TABLE4 = {
    # program: (heap, global, local, control, trail)
    "window-1": (49.6, 4.6, 16.5, 26.7, 2.6),
    "window-2": (56.6, 4.4, 12.7, 26.3, 0.1),
    "window-3": (52.7, 6.2, 12.1, 28.2, 0.8),
    "puzzle8": (31.3, 14.3, 33.9, 14.1, 6.4),
    "bup": (39.0, 29.9, 17.3, 12.0, 1.8),
    "harmonizer": (35.2, 17.7, 30.3, 12.8, 3.8),
    "lcp": (44.7, 22.3, 14.1, 17.4, 1.4),
}

# -- Table 5: cache hit ratios per memory area (%) --------------------------------

TABLE5 = {
    # program: (heap, global, local, control, trail, total)
    "window-1": (96.0, 92.8, 98.9, 99.4, 99.6, 96.4),
    "window-2": (87.2, 90.0, 98.5, 99.3, 95.2, 91.9),
    "window-3": (84.5, 92.8, 97.4, 98.6, 98.7, 90.7),
    "puzzle8": (99.2, 99.4, 99.6, 99.2, 97.7, 99.3),
    "bup": (98.2, 96.8, 99.0, 93.2, 99.7, 98.0),
    "harmonizer": (98.4, 98.4, 99.4, 98.2, 97.9, 98.4),
    "lcp": (96.2, 93.8, 99.2, 99.1, 98.6, 96.2),
}

# -- Figure 1 and §4.2 statements -------------------------------------------------

#: The improvement ratio "saturates near the capacity of 512 words".
FIGURE1_SATURATION_WORDS = 512
#: One 4KW set was only ~3% lower than two 4KW sets.
ONE_SET_LOSS_PERCENT = 3.0
#: Store-in was ~8% higher than store-through.
STORE_IN_GAIN_PERCENT = 8.0
#: Read:Write command ratio is approximately 3:1.
READ_WRITE_RATIO = 3.0
#: Write-stack accounts for 50-75% of all write commands.
WRITE_STACK_SHARE = (50.0, 75.0)

# -- Table 6: WF access-mode frequencies for BUP ------------------------------------
# mode: (source1 % of WF accesses, source1 % of steps,
#        source2 % of WF accesses, source2 % of steps,
#        dest % of WF accesses, dest % of steps)   None = not applicable

TABLE6 = {
    "WF00-0F": (12.2, 6.9, 100.0, 29.1, 33.0, 12.1),
    "WF10-3F": (58.5, 33.0, None, None, 63.6, 23.3),
    "Constant": (23.0, 13.0, None, None, None, None),
    "@PDR/CDR": (1.3, 0.8, None, None, 0.3, 0.1),
    "@WFAR1": (4.6, 2.6, None, None, 2.8, 1.0),
    "@WFAR2": (0.07, 0.04, None, None, 0.3, 0.1),
    "@WFCBR": (0.3, 0.2, None, None, 0.0, 0.0),
}

#: Table 6 'total' row: field access rates as % of all steps.
TABLE6_TOTALS = {"source1": 56.4, "source2": 29.1, "dest": 36.6}

#: §4.3: direct addressing covers >=90% of WF accesses.
DIRECT_ADDRESSING_MIN = 90.0
#: §4.3: >=90% of WFAR indirect accesses use auto increment.
WFAR_AUTO_INCREMENT_MIN = 0.90

# -- Table 7: branch operation frequencies (%) ----------------------------------------

TABLE7 = {
    # op label: {program: percent}
    "no operation (1)": {"bup": 7.2, "window": 6.7, "puzzle8": 4.8},
    "if (cond) then": {"bup": 16.0, "window": 16.5, "puzzle8": 12.1},
    "if (not(cond)) then": {"bup": 19.2, "window": 17.0, "puzzle8": 20.3},
    "if tag(src2) then": {"bup": 2.7, "window": 5.2, "puzzle8": 3.1},
    "case (tag(n,P/CDR))": {"bup": 10.9, "window": 8.6, "puzzle8": 9.1},
    "case (irn)": {"bup": 2.8, "window": 4.6, "puzzle8": 4.9},
    "case (ir-opcode)": {"bup": 0.5, "window": 1.4, "puzzle8": 1.5},
    "goto (1)": {"bup": 3.7, "window": 1.4, "puzzle8": 2.7},
    "gosub": {"bup": 4.0, "window": 5.7, "puzzle8": 6.5},
    "return": {"bup": 3.8, "window": 5.4, "puzzle8": 6.5},
    "load-jr": {"bup": 0.8, "window": 0.4, "puzzle8": 0.7},
    "goto @jr (1)": {"bup": 1.4, "window": 0.6, "puzzle8": 0.7},
    "no operation (2)": {"bup": 9.6, "window": 7.8, "puzzle8": 7.7},
    "goto (2)": {"bup": 10.9, "window": 11.7, "puzzle8": 15.2},
    "no operation (3)": {"bup": 6.5, "window": 7.0, "puzzle8": 4.2},
    "goto @jr (3)": {"bup": 0.0, "window": 0.04, "puzzle8": 0.05},
}

#: §4.4: 77-83% of steps contain a branch operation.
BRANCH_RATE_RANGE = (77.0, 83.0)
#: Conditional branches account for 35-39% of steps.
CONDITIONAL_RATE_RANGE = (35.0, 39.0)
#: Multi-way (case) branches: 13-14% of steps.
MULTIWAY_RATE_RANGE = (13.0, 14.0)

#: §3.2: builtin call rate among all predicate calls.
BUILTIN_CALL_RATE = {"window": 82.0, "bup": 65.0}


# -- Cell declarations ------------------------------------------------------------
#
# Each artifact declares its workloads once (program label -> workload,
# in print order), its fidelity band and its measures.  A measure
# ``(row, col, how)`` fills one cell per program label, PROGRAM in
# ``row`` or ``col`` standing for the label; ``how`` is a Ratio of
# counters, a Sum of cells declared before it, or (Table 1's DEC/PSI
# ratio, Figure 1's saturation point) a function ``(data, row)`` of the
# artifact's generated data.  A cell with a paper value is scored,
# one without is only printed.
#
# Band ``kind`` selects the error formula: ``"ratio"`` is relative
# error against the paper's value (unitless quantities like Table 1's
# DEC/PSI ratios or Table 5's hit ratios, where the paper value's
# magnitude is the natural yardstick), and ``"percent"`` is the
# absolute percentage-point difference (the exact-count frequency
# tables, where 2% vs 4% is a 2-point miss, not a 100% one).
# ``tolerance`` is the error at which a cell counts as drifted: a
# cell's drift is ``error / tolerance``, so 1.0 is the band edge.  The
# bands are calibration targets, not guarantees — tighten them as the
# reproduction closes on the paper.

#: Row/column placeholder for the program label a cell is measured on.
PROGRAM = "{program}"


@dataclass(frozen=True)
class Ratio:
    """``scale * sum(num) / sum(den)`` over one run's count views.

    Keys are ``(view, item)`` pairs into
    :data:`repro.eval.report.VIEWS`; an empty ``den`` divides by one,
    and a denominator that counts nothing gives ``empty``."""

    num: tuple
    den: tuple = ()
    scale: float = 100.0
    empty: float = 0.0

    def of(self, counts: dict) -> float:
        den = sum(counts[view].get(item, 0) for view, item in self.den) \
            if self.den else 1
        if not den:
            return self.empty
        return self.scale * sum(counts[view].get(item, 0)
                                for view, item in self.num) / den


@dataclass(frozen=True)
class Sum:
    """The sum, in order, of cells declared before it (``(row, col)``
    pairs, PROGRAM standing for the same program label)."""

    cells: tuple


@dataclass(frozen=True)
class Cell:
    """One declared cell of one artifact."""

    artifact: str
    row: str
    col: str
    paper: float | None         # None: measured and printed, not scored
    how: object                 # Ratio, Sum, or fn(data, row)

    def measured(self, data):
        """The cell's value in the artifact's generated ``data``
        (``None`` when ``data`` did not measure it)."""
        if isinstance(self.how, (Ratio, Sum)):
            return data.get((self.row, self.col))
        return self.how(data, self.row)


def place(row: str, col: str, program: str) -> tuple[str, str]:
    """A measure's ``(row, col)`` for one program label."""
    return (program if row == PROGRAM else row,
            program if col == PROGRAM else col)


@dataclass(frozen=True)
class Artifact:
    """One table or figure: its workloads, band and measured cells."""

    name: str
    workloads: dict             # program label -> workload name
    measures: tuple = ()        # (row, col, how)
    paper: dict = field(default_factory=dict)   # (row, col) -> value
    kind: str | None = None     # fidelity band: "ratio" | "percent"
    tolerance: float | None = None

    def cells(self) -> tuple[Cell, ...]:
        cells = []
        for label in self.workloads:
            for row, col, how in self.measures:
                key = place(row, col, label)
                cells.append(Cell(self.name, *key, self.paper.get(key), how))
        return tuple(cells)


def paper(artifact: str, row: str, col: str) -> float | None:
    """The paper's value for one cell (``None`` if it prints none)."""
    return ARTIFACTS[artifact].paper.get((row, col))


def _keys(view: str, items) -> tuple:
    return tuple((view, item) for item in items)


_STEPS = (("steps", "total"),)
_FIELDS = ("source1", "source2", "dest")
_DIRECT = (WFMode.WF00_0F, WFMode.WF10_3F, WFMode.CONSTANT)
_OPS = _keys("branch", BranchOp)
_WRITES = _keys("cmd", (CacheCmd.WRITE_STACK, CacheCmd.WRITE))
_HARDWARE = {"window-1": "window-1", "window-2": "window-2",
             "window-3": "window-3", "puzzle8": "puzzle8",
             "bup": "bup-eval", "harmonizer": "harmonizer-2",
             "lcp": "lcp-eval"}
_TABLE3_COLS = ("read", "write_stack", "write", "write_total", "total")
_CMDS = {"read": CacheCmd.READ, "write_stack": CacheCmd.WRITE_STACK,
         "write": CacheCmd.WRITE}


def _wf(fields, modes=WFMode) -> tuple:
    return tuple(("wf", (f, mode)) for f in fields for mode in modes)



def _hits(areas) -> tuple:
    return _keys("cache", (("hits", a) for a in areas))


def _accesses(areas) -> tuple:
    return _keys("cache", ((kind, a) for a in areas
                           for kind in ("hits", "misses")))


def _op_sum(*ops: BranchOp) -> Sum:
    return Sum(tuple((op.value, PROGRAM) for op in ops))


def _dec_over_psi(rows, row: str) -> float | None:
    return next((r.ratio for r in rows if r.name == row), None)


def _saturation(result, row: str) -> int:
    return result.saturation_capacity


ARTIFACTS = {artifact.name: artifact for artifact in (
    Artifact(
        "table1", {name: name for name in TABLE1},
        ((PROGRAM, "dec_over_psi", _dec_over_psi),),
        {(name, "dec_over_psi"): row[2] for name, row in TABLE1.items()},
        "ratio", 0.25),
    Artifact(
        "table2", {"window": "window-1", "puzzle8": "puzzle8",
                   "bup": "bup-eval", "harmonizer": "harmonizer-2"},
        tuple((PROGRAM, m.value, Ratio((("module", m),), _STEPS))
              for m in Module)
        + ((PROGRAM, "builtin_call_rate",
            Ratio((("calls", "builtin"),),
                  _keys("calls", ("inferences", "builtin")))),),
        {**{(p, m): v for p, row in TABLE2.items() for m, v in row.items()},
         **{(p, "builtin_call_rate"): v
            for p, v in BUILTIN_CALL_RATE.items()}},
        "percent", 10.0),
    Artifact(
        "table3", _HARDWARE,
        tuple((PROGRAM, col, Ratio((("cmd", cmd),), _STEPS))
              for col, cmd in _CMDS.items())
        + ((PROGRAM, "write_total",
            Sum(((PROGRAM, "write_stack"), (PROGRAM, "write")))),
           (PROGRAM, "total", Sum(((PROGRAM, "read"),
                                   (PROGRAM, "write_total")))),
           (PROGRAM, "read_write_ratio",
            Ratio((("cmd", CacheCmd.READ),),
                  _WRITES, scale=1.0)),
           (PROGRAM, "write_stack_share",
            Ratio((("cmd", CacheCmd.WRITE_STACK),), _WRITES))),
        {(p, col): v for p, row in TABLE3.items()
         for col, v in zip(_TABLE3_COLS, row)},
        "percent", 6.0),
    Artifact(
        "table4", _HARDWARE,
        tuple((PROGRAM, a.label, Ratio((("area", a),), _keys("area", Area)))
              for a in Area),
        {(p, a.label): v for p, row in TABLE4.items()
         for a, v in zip(Area, row)},
        "percent", 10.0),
    Artifact(
        "table5", _HARDWARE,
        tuple((PROGRAM, a.label, Ratio(_hits([a]), _accesses([a]),
                                       empty=100.0))
              for a in Area)
        + ((PROGRAM, "total", Ratio(_hits(Area), _accesses(Area),
                                    empty=100.0)),),
        {(p, col): v for p, row in TABLE5.items()
         for col, v in zip([a.label for a in Area] + ["total"], row)},
        "ratio", 0.05),
    Artifact(
        "table6", {"bup": "bup-eval"},
        tuple(measure for mode in WFMode for f in _FIELDS for measure in (
            (mode.value, f"{f}.wf", Ratio(_wf([f], [mode]), _wf([f]))),
            (mode.value, f"{f}.steps", Ratio(_wf([f], [mode]), _STEPS))))
        + tuple(("total", f"{f}.steps", Ratio(_wf([f]), _STEPS))
                for f in _FIELDS)
        + (("direct addressing", "share",
            Ratio(_wf(_FIELDS, _DIRECT), _wf(_FIELDS))),
           ("WFAR auto-increment", "share",
            Ratio((("wfar", "auto_increment"),)))),
        # TABLE6 rows are (wf, steps) pairs per field, None where the
        # paper prints no value.
        {**{(mode, f"{f}.{unit}"): v for mode, row in TABLE6.items()
            for i, f in enumerate(_FIELDS)
            for unit, v in zip(("wf", "steps"), row[2 * i:2 * i + 2])
            if v is not None},
         **{("total", f"{f}.steps"): v for f, v in TABLE6_TOTALS.items()}},
        "percent", 8.0),
    Artifact(
        "table7", {"bup": "bup-eval", "window": "window-1",
                   "puzzle8": "puzzle8"},
        tuple((op.value, PROGRAM, Ratio((("branch", op),), _OPS))
              for op in BranchOp)
        + (("branch ops", PROGRAM,
            Ratio(_keys("branch", (op for op in BranchOp
                                   if op not in NO_OPERATION_OPS)), _OPS)),
           ("conditionals", PROGRAM, _op_sum(
               BranchOp.IF_COND, BranchOp.IF_NOT_COND, BranchOp.IF_TAG)),
           ("multi-way", PROGRAM, _op_sum(
               BranchOp.CASE_TAG, BranchOp.CASE_IRN, BranchOp.CASE_OPCODE))),
        {(op, p): v for op, row in TABLE7.items() for p, v in row.items()},
        "percent", 5.0),
    Artifact(
        "figure1", {"window": "window-1"},
        ((PROGRAM, "saturation_words", _saturation),),
        {("window", "saturation_words"): FIGURE1_SATURATION_WORDS},
        "ratio", 1.0),
    Artifact("ablations", {"window": "window-1", "puzzle8": "puzzle8",
                           "bup": "bup-2"}),
)}
