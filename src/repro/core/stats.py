"""Execution statistics collector — the model of the COLLECT tool.

The collector counts *routine emissions* keyed by the interpreter
module that was active when they were emitted.  Because each
:class:`~repro.core.micro.MicroRoutine` precomputes the per-field
histograms of its steps, every statistic in the paper's Tables 2, 3, 6
and 7 is reconstructed exactly from the emission counters at reporting
time; nothing is sampled.

Memory accesses arrive through :meth:`mem_access` (called by
:class:`~repro.core.memory.MemorySystem`): they bill one
microinstruction carrying the cache command and are additionally
tallied per (command, area) for Tables 3 and 4.

Hot-path representation: emissions accumulate in flat per-id count
lists — ``_pair_counts`` indexed by ``routine.pair_base + module.idx``
and ``_mem_counts`` indexed by ``cmd.code * N_AREAS + area`` — so one
emission is one list-index increment, with no tuple allocation and no
enum hashing.  The reporting views :attr:`routine_counts` and
:attr:`mem_counts` fold the flat lists back into the ``(Module,
MicroRoutine)`` / ``(CacheCmd, Area)`` ``Counter``\\ s every consumer
(tables, MAP tool, tests) always saw; the fold is exact, so the
equivalence contract (``tests/core/test_stream_equivalence.py``) holds
bit-for-bit.

Superinstructions (:mod:`repro.core.fusion`) are billed through the
ordered billing log ``_log``: a fused call site appends the spec's code
(one byte; the plain collector's log is a ``bytearray``) and
:meth:`StatsCollector._flush_log` counts the log once, when a reporting
view is first read.  The observed collector
(:class:`repro.obs.session.ObservedStatsCollector`) logs its other
bills into the same list, which is how it derives its clock-stamped
views from the order of the run's bills.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.core import micro as _micro
from repro.core.micro import (
    CMD_BY_CODE,
    MEM_PAIR_BASE,
    MODULE_BY_INDEX,
    N_MODULES,
    NO_OPERATION_OPS,
    BranchOp,
    CacheCmd,
    MicroRoutine,
    Module,
    WFMode,
)

#: Number of memory areas (:class:`repro.core.memory.Area`); kept as a
#: literal here to avoid a circular import — guarded by a test.
N_AREAS = 5


class StatsCollector:
    """Accumulates microinstruction-stream statistics for one run."""

    __slots__ = ("module", "predicate", "inferences", "builtin_calls",
                 "_pair_counts", "_mem_counts", "_log")

    def __init__(self) -> None:
        self.module: Module = Module.CONTROL
        #: The workload predicate currently being resolved
        #: (``functor/arity``), published by the machine at call,
        #: proceed and backtrack boundaries.  The base collector only
        #: stores it; the observability layer
        #: (:class:`repro.obs.session.ObservedStatsCollector`) marks
        #: each store's place in its billing log, which is how it
        #: attributes microsteps per predicate.
        self.predicate: str = "(startup)"
        self.inferences = 0                            # user-predicate calls (LIPS)
        self.builtin_calls = 0
        self._pair_counts: list[int] = [0] * _micro.pair_space()
        self._mem_counts: list[int] = [0] * (len(CMD_BY_CODE) * N_AREAS)
        #: Superinstruction codes in billing order, counted by
        #: :meth:`_flush_log`.
        self._log = bytearray()

    # -- recording -----------------------------------------------------------

    def emit(self, routine: MicroRoutine, times: int = 1) -> None:
        """Record ``times`` executions of ``routine`` in the current module."""
        index = routine.pair_base + self.module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times

    def emit_in(self, module: Module, routine: MicroRoutine, times: int = 1) -> None:
        index = routine.pair_base + module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times

    def mem_access(self, cmd: CacheCmd, area) -> None:
        code = cmd.code
        self._mem_counts[code * N_AREAS + area] += 1
        index = MEM_PAIR_BASE[code] + self.module.idx
        try:
            self._pair_counts[index] += 1
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += 1

    def mem_access_n(self, cmd: CacheCmd, area, times: int) -> None:
        """Batched :meth:`mem_access`: ``times`` identical accesses.

        Used by the fused :class:`~repro.core.memory.MemorySystem`
        block paths (control-frame pushes, frame flushes, resume
        reads); equivalent to calling :meth:`mem_access` ``times``
        times.
        """
        code = cmd.code
        self._mem_counts[code * N_AREAS + area] += times
        index = MEM_PAIR_BASE[code] + self.module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times

    def emit_fused(self, fused) -> None:
        """Bill one static :class:`~repro.core.fusion.Superinstruction`.

        Deferred: the spec's code joins the billing log now, and its
        precomputed pair/memory deltas are folded in by
        :meth:`_flush_log` the first time a reporting view is read.
        Counter billing is order-free (only the *final* counts are
        observable), so deferral is exactly equivalent to the unfused
        per-op run — guarded by ``tests/core/test_fusion.py`` and the
        golden digests.

        The machine's fused dispatch sites inline this append
        (``stats._log.append(code)``), so this method is the API for
        tests and out-of-machine callers.
        """
        self._log.append(fused.slot)

    def emit_fused_dyn(self, fused) -> None:
        """Bill a dynamic superinstruction under the current module.

        Like :meth:`emit_fused` but the code is module-relative: the
        ambient module at *emission* time decides which (sid, module)
        code is logged, which is all the flush needs to reconstruct the
        absolute pair indices.
        """
        self._log.append(fused.sid6 + self.module.idx)

    def _flush_log(self) -> None:
        """Count the billing log into the flat counters.

        Called by every reporting view before it reads the flat lists.
        Idempotent (the log is emptied); one C-level count over the
        log, then a few delta loops per distinct code.
        """
        log = self._log
        if not log:
            return
        counts = Counter(log)
        del log[:]
        for code, n in counts.items():
            self._bill(code, n)

    def _bill(self, code: int, n: int) -> None:
        """Apply ``n`` logged bills of superinstruction ``code``."""
        from repro.core import fusion
        si = fusion.BY_SID[code // N_MODULES]
        midx = code % N_MODULES
        counts = self._pair_counts
        if si.max_index >= len(counts):
            self._grow_pairs(si.max_index)
        for base, times in si.base_deltas:
            counts[base + midx] += times * n
        mem = self._mem_counts
        for index, times in si.mem_deltas:
            mem[index] += times * n

    def _grow_pairs(self, index: int) -> None:
        """Extend the flat pair list (a routine was defined after this
        collector was constructed — test-defined routines)."""
        counts = self._pair_counts
        need = max(_micro.pair_space(), index + 1)
        counts.extend([0] * (need - len(counts)))

    # -- reporting views ---------------------------------------------------------

    @property
    def routine_counts(self) -> Counter:
        """``(Module, MicroRoutine) -> n`` fold of the flat counters.

        Rebuilt on access (reporting-time only); mutations to the
        returned Counter do not feed back into the collector.
        """
        self._flush_log()
        counts: Counter = Counter()
        modules = MODULE_BY_INDEX
        routines = _micro.routines_by_rid()
        for index, n in enumerate(self._pair_counts):
            if n:
                counts[(modules[index % N_MODULES],
                        routines[index // N_MODULES])] = n
        return counts

    @property
    def mem_counts(self) -> Counter:
        """``(CacheCmd, Area) -> n`` fold of the flat counters."""
        from repro.core.memory import Area
        self._flush_log()
        counts: Counter = Counter()
        areas = tuple(Area)
        for index, n in enumerate(self._mem_counts):
            if n:
                counts[(CMD_BY_CODE[index // N_AREAS],
                        areas[index % N_AREAS])] = n
        return counts

    # -- derived statistics -----------------------------------------------------

    @property
    def total_steps(self) -> int:
        self._flush_log()
        routines = _micro.routines_by_rid()
        return sum(routines[index // N_MODULES].n_steps * n
                   for index, n in enumerate(self._pair_counts) if n)

    def module_steps(self) -> dict[Module, int]:
        """Microinstruction steps per interpreter module (Table 2 numerators)."""
        steps: Counter = Counter()
        for (module, routine), n in self.routine_counts.items():
            steps[module] += routine.n_steps * n
        return dict(steps)

    def module_ratios(self) -> dict[Module, float]:
        total = self.total_steps
        if total == 0:
            return {module: 0.0 for module in Module}
        steps = self.module_steps()
        return {module: 100.0 * steps.get(module, 0) / total for module in Module}

    def cache_command_counts(self) -> dict[CacheCmd, int]:
        """Total accesses per cache command (Table 3 numerators)."""
        self._flush_log()
        counts = self._mem_counts
        return {cmd: sum(counts[cmd.code * N_AREAS:(cmd.code + 1) * N_AREAS])
                for cmd in CacheCmd}

    def cache_command_ratios(self) -> dict[CacheCmd, float]:
        """Table 3: cache command steps as % of all microinstruction steps."""
        total = self.total_steps
        if total == 0:
            return {cmd: 0.0 for cmd in CacheCmd}
        counts = self.cache_command_counts()
        return {cmd: 100.0 * counts[cmd] / total for cmd in CacheCmd}

    def area_access_counts(self) -> Counter:
        """Accesses per memory area (Table 4 numerators)."""
        counts: Counter = Counter()
        for (_cmd, area), n in self.mem_counts.items():
            counts[area] += n
        return counts

    def area_access_ratios(self) -> dict:
        """Table 4: % of all memory accesses going to each area."""
        counts = self.area_access_counts()
        total = sum(counts.values())
        if total == 0:
            return {}
        return {area: 100.0 * n / total for area, n in counts.items()}

    @property
    def total_mem_accesses(self) -> int:
        self._flush_log()
        return sum(self._mem_counts)

    # -- work file (Table 6) -------------------------------------------------------

    def wf_field_counts(self) -> dict[str, Counter]:
        """Access-mode histograms for the three WF-controlling fields."""
        fields = {"source1": Counter(), "source2": Counter(), "dest": Counter()}
        for (_, routine), n in self.routine_counts.items():
            for mode, c in routine.wf1_counts.items():
                fields["source1"][mode] += c * n
            for mode, c in routine.wf2_counts.items():
                fields["source2"][mode] += c * n
            for mode, c in routine.dest_counts.items():
                fields["dest"][mode] += c * n
        return fields

    def wf_table(self) -> dict[str, dict[WFMode, tuple[float, float]]]:
        """Table 6: per field, per mode, (% of WF accesses in that field,
        % of total microinstruction steps)."""
        fields = self.wf_field_counts()
        total_steps = self.total_steps or 1
        table: dict[str, dict[WFMode, tuple[float, float]]] = {}
        for field, counts in fields.items():
            field_total = sum(counts.values()) or 1
            table[field] = {
                mode: (100.0 * counts[mode] / field_total,
                       100.0 * counts[mode] / total_steps)
                for mode in WFMode
            }
        return table

    def wf_field_totals(self) -> dict[str, float]:
        """Per-field WF access rate as % of total steps (Table 6 'total' row)."""
        fields = self.wf_field_counts()
        total_steps = self.total_steps or 1
        return {field: 100.0 * sum(counts.values()) / total_steps
                for field, counts in fields.items()}

    def wfar_auto_increment_ratio(self) -> float:
        """Fraction of WFAR indirect accesses using auto increment/decrement."""
        accesses = 0
        auto = 0
        for (_, routine), n in self.routine_counts.items():
            accesses += routine.wfar_accesses * n
            auto += routine.wfar_auto_inc * n
        return auto / accesses if accesses else 0.0

    # -- branches (Table 7) ----------------------------------------------------------

    def branch_counts(self) -> Counter:
        counts: Counter = Counter()
        for (_, routine), n in self.routine_counts.items():
            for op, c in routine.branch_counts.items():
                counts[op] += c * n
        return counts

    def branch_ratios(self) -> dict[BranchOp, float]:
        """Table 7: % of steps whose branch field holds each operation."""
        counts = self.branch_counts()
        total = sum(counts.values()) or 1
        return {op: 100.0 * counts.get(op, 0) / total for op in BranchOp}

    def branch_operation_rate(self) -> float:
        """% of steps containing a real branch operation (non-No-Operation)."""
        counts = self.branch_counts()
        total = sum(counts.values()) or 1
        noop = sum(counts.get(op, 0) for op in NO_OPERATION_OPS)
        return 100.0 * (total - noop) / total

    # -- misc ------------------------------------------------------------------------

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector's counts into this one.

        Goes through the portable ``routine_counts``/``mem_counts``
        views (not the flat lists) so it is independent of the other
        collector's internal id assignment.
        """
        for (module, routine), n in other.routine_counts.items():
            self.emit_in(module, routine, n)
        for (cmd, area), n in other.mem_counts.items():
            self._mem_counts[cmd.code * N_AREAS + area] += n
        self.inferences += other.inferences
        self.builtin_calls += other.builtin_calls

    # -- pickling ---------------------------------------------------------------------
    #
    # Serialised in the portable Counter form (routines pickle by
    # registry name, enums by member name) rather than the flat lists,
    # so payloads stay compact (non-zero entries only) and independent
    # of routine id assignment order.

    def __getstate__(self) -> dict:
        return {
            "module": self.module,
            "predicate": self.predicate,
            "inferences": self.inferences,
            "builtin_calls": self.builtin_calls,
            "routine_counts": self.routine_counts,
            "mem_counts": self.mem_counts,
        }

    def __setstate__(self, state: dict) -> None:
        self.module = state["module"]
        self.predicate = state["predicate"]
        self.inferences = state["inferences"]
        self.builtin_calls = state["builtin_calls"]
        self._pair_counts = [0] * _micro.pair_space()
        self._mem_counts = [0] * (len(CMD_BY_CODE) * N_AREAS)
        self._log = bytearray()
        for (module, routine), n in state["routine_counts"].items():
            self.emit_in(module, routine, n)
        for (cmd, area), n in state["mem_counts"].items():
            self._mem_counts[cmd.code * N_AREAS + area] += n


@dataclass
class NullStats:
    """Stats stub that ignores everything (for semantics-only test runs)."""

    module: Module = Module.CONTROL
    predicate: str = "(startup)"
    inferences: int = 0
    builtin_calls: int = 0
    #: the fused sites' billing log: appends are discarded
    _log: deque = field(default_factory=lambda: deque(maxlen=0))

    def emit(self, routine, times: int = 1) -> None:
        pass

    def emit_in(self, module, routine, times: int = 1) -> None:
        pass

    def mem_access(self, cmd, area) -> None:
        pass

    def mem_access_n(self, cmd, area, times: int) -> None:
        pass

    def emit_fused(self, fused) -> None:
        pass

    def emit_fused_dyn(self, fused) -> None:
        pass
