"""Micro-op sequence mining: find the hot n-grams worth fusing.

The superinstruction table (:mod:`repro.core.fused_table`) is not
hand-guessed: it is derived from evidence.  This module records the
*unfused* micro-op emission stream of real workload runs and counts
the most frequent short sequences (n-grams), ranking each candidate by
the total number of microinstruction steps attributable to it across
the workload set.  ``scripts/gen_superinstructions.py`` uses the
ranking to regenerate the committed table; ``psi-eval profile
--sequences N`` surfaces it for inspection.

Event encoding
--------------

One journal event is one packed int::

    (times << 19) | (area << 16) | pair_index

``pair_index`` is the collector's flat pair index
(``routine.pair_base + module.idx``), which identifies the (module,
routine) pair in 16 bits.  ``area`` is the memory area for cache
accesses and the sentinel ``7`` for plain emissions.  ``times`` keeps
batched emissions (``emit(..., times=n)``, ``mem_access_n``) as a
*single* token: a run of ``n`` identical ops is one micro-op with a
repeat count in the reference stream, and the fused table models it
the same way (an ``emissions`` entry with a ``times`` field).

Because :class:`RecordingStatsCollector` is a *subclass* of
:class:`~repro.core.stats.StatsCollector`, the machine's fused-dispatch
gate (an exact ``type`` check) turns fusion off for mining runs — the
journal therefore always records the true per-op reference stream,
never the already-fused one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core import micro
from repro.core.micro import MEM_PAIR_BASE, MODULE_BY_INDEX, N_MODULES
from repro.core.stats import StatsCollector

#: ``area`` value marking a non-memory emission token.
NO_AREA = 7

_AREA_NAMES = ("heap", "global", "local", "control", "trail")
_NO_AREA_BITS = NO_AREA << 16


class RecordingStatsCollector(StatsCollector):
    """A stats collector that additionally journals the emission stream.

    Every billing call appends one packed event to :attr:`events` after
    delegating to the base class, so the counters stay exactly those of
    a plain run while the journal captures the op order the counters
    erase.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        super().__init__()
        self.events: list[int] = []

    def emit(self, routine, times: int = 1) -> None:
        super().emit(routine, times)
        self.events.append((times << 19) | _NO_AREA_BITS
                           | (routine.pair_base + self.module.idx))

    def emit_in(self, module, routine, times: int = 1) -> None:
        super().emit_in(module, routine, times)
        self.events.append((times << 19) | _NO_AREA_BITS
                           | (routine.pair_base + module.idx))

    def mem_access(self, cmd, area) -> None:
        super().mem_access(cmd, area)
        self.events.append((1 << 19) | (area << 16)
                           | (MEM_PAIR_BASE[cmd.code] + self.module.idx))

    def mem_access_n(self, cmd, area, times: int) -> None:
        super().mem_access_n(cmd, area, times)
        self.events.append((times << 19) | (area << 16)
                           | (MEM_PAIR_BASE[cmd.code] + self.module.idx))

    # A machine never routes fused dispatch at this collector (the gate
    # is an exact type check), but if a superinstruction is billed
    # explicitly — tests, future callers — replay it through the
    # journaling primitives so the stream stays complete.
    def emit_fused(self, fused) -> None:
        fused.replay(self)

    def emit_fused_dyn(self, fused) -> None:
        fused.replay(self)


def token_label(token: int) -> str:
    """Human-readable form of one packed event.

    ``control:proc.lookup``, ``unify:cache.read@heap``,
    ``control:frame.init_slot×3`` — module, routine name, memory area
    when the token is an access, repeat count when batched.
    """
    index = token & 0xFFFF
    area = (token >> 16) & 0x7
    times = token >> 19
    module = MODULE_BY_INDEX[index % N_MODULES]
    routine = micro.routines_by_rid()[index // N_MODULES]
    label = f"{module.value}:{routine.name}"
    if area != NO_AREA:
        label += f"@{_AREA_NAMES[area]}"
    if times != 1:
        label += f"×{times}"
    return label


def token_steps(token: int) -> int:
    """Microinstruction steps one occurrence of this token bills."""
    index = token & 0xFFFF
    times = token >> 19
    return micro.routines_by_rid()[index // N_MODULES].n_steps * times


@dataclass(frozen=True)
class Candidate:
    """One mined n-gram, ranked by total attributed steps."""

    tokens: tuple[int, ...]
    count: int

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def steps_per(self) -> int:
        """Unfused steps one occurrence bills."""
        return sum(token_steps(t) for t in self.tokens)

    @property
    def steps(self) -> int:
        """Total steps attributed to this sequence across the corpus."""
        return self.count * self.steps_per

    @property
    def label(self) -> str:
        return " → ".join(token_label(t) for t in self.tokens)

    def to_json(self) -> dict:
        return {
            "ops": [token_label(t) for t in self.tokens],
            "length": self.length,
            "count": self.count,
            "steps_per_occurrence": self.steps_per,
            "total_steps": self.steps,
        }


def ngram_counts(events: list[int],
                 lengths: tuple[int, ...] = (2, 3, 4)) -> Counter:
    """Count every n-gram of the given lengths in one event journal."""
    counts: Counter = Counter()
    for n in lengths:
        if len(events) >= n:
            counts.update(zip(*(events[i:] for i in range(n))))
    return counts


def rank(counts: Counter, top: int = 20,
         min_count: int = 2) -> list[Candidate]:
    """The ``top`` candidates by total attributed steps.

    Longer grams containing a shorter one inherit its occurrences, so
    both appear; ranking by steps (not raw count) keeps the list from
    being dominated by cheap two-op pairs.
    """
    candidates = [Candidate(tokens=gram, count=n)
                  for gram, n in counts.items() if n >= min_count]
    candidates.sort(key=lambda c: (-c.steps, -c.count, c.tokens))
    return candidates[:top]


def record_workload(name: str) -> RecordingStatsCollector:
    """Run one registered workload unfused and return its journal."""
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get(name)
    rec = RecordingStatsCollector()
    collect(workload.source, workload.goal,
            all_solutions=workload.all_solutions,
            record_trace=False, with_cache=False,
            stats_collector=rec,
            setup_goals=workload.setup_goals)
    return rec


def mine_workload(name: str, lengths: tuple[int, ...] = (2, 3, 4),
                  top: int = 20) -> list[Candidate]:
    """Top fusion candidates for a single workload."""
    return rank(ngram_counts(record_workload(name).events, lengths), top)
