"""COLLECT: run a program on the PSI model and capture everything.

The original COLLECT was an interpreter in the PSI's console processor
that single-stepped the CPU and dumped microinstruction addresses,
register and memory contents to floppy disk.  Our equivalent runs a
goal on :class:`~repro.core.machine.PSIMachine` with

* the stats collector (microinstruction-stream statistics),
* optionally a :class:`~repro.core.memory.TraceRecorder` (the memory
  access stream handed to PMMS), and
* optionally an online :class:`~repro.memsys.Cache` in the paper's
  production configuration, for end-to-end execution-time measurement.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro import obs
from repro.core.machine import MachineConfig, PSIMachine
from repro.core.memory import TraceRecorder
from repro.core.stats import StatsCollector
from repro.engine.answers import Answer, canonical_answer
from repro.memsys import Cache, CacheConfig, CacheStats, TimingBreakdown, execution_time
from repro.obs.session import RunObservation


@dataclass
class CollectedRun:
    """Everything COLLECT gathered from one run.

    ``machine`` is ``None`` for runs rebuilt from a
    :class:`RunSummary` (worker-process or disk-cache round trips):
    all table/figure statistics live in ``stats``/``trace``/``cache``,
    only interactive inspection of the live machine is lost.
    """

    goal: str
    succeeded: bool
    solutions: int
    stats: StatsCollector
    trace: TraceRecorder | None
    cache: Cache | None
    machine: PSIMachine | None
    #: Observability artifact (trace/profile/metrics) when the run was
    #: collected with :func:`repro.obs.enabled` on; ``None`` otherwise.
    #: Derived data — excluded from :meth:`to_summary` and therefore
    #: never pickled to workers or the persistent run cache.
    observation: RunObservation | None = field(default=None, compare=False)
    #: Canonical answers captured from the solutions (one per solution
    #: found; a single entry for a first-solution run).  Decoding is
    #: billing-free, so capture does not perturb any statistic.
    answers: tuple[Answer, ...] = ()
    #: Snapshot of the machine's side-effect counters after the run
    #: (``counter_inc`` et al. — how failure-driven loops report).
    counters: dict[str, int] = field(default_factory=dict)
    #: Trace length (= microstep) observed right after each solution was
    #: decoded, one mark per entry of ``answers``.  This is the answer
    #: index → microstep map the time-travel explorer's differential
    #: mode uses to pinpoint where a diverging answer was emitted.
    #: Empty when no trace/cache feed recorded the run.
    answer_marks: tuple[int, ...] = ()
    #: Clause-selection counters (``index_hits`` / ``index_misses`` /
    #: ``choicepoints_avoided``) from the machine's first-argument
    #: index.  All zero on a faithful (non-``indexed``) run.
    index_stats: dict[str, int] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.stats.total_steps

    @property
    def timing(self) -> TimingBreakdown:
        """PSI execution time (requires the online cache)."""
        cache_stats = self.cache.stats if self.cache is not None else None
        return execution_time(self.steps, cache_stats)

    @property
    def time_ms(self) -> float:
        return self.timing.total_ms

    @property
    def lips(self) -> float:
        """Logical inferences per second at the modelled clock."""
        seconds = self.timing.total_ns / 1e9
        return self.stats.inferences / seconds if seconds else 0.0

    def to_summary(self) -> "RunSummary":
        """Shrink to the picklable hand-off form (drops the machine).

        Also drops the observability artifact and strips an
        :class:`~repro.obs.session.ObservedStatsCollector` back to the
        plain base class, so the bytes the persistent run cache stores
        are identical whether or not the run was observed.
        """
        return RunSummary(
            goal=self.goal,
            succeeded=self.succeeded,
            solutions=self.solutions,
            stats=_plain_stats(self.stats),
            trace_bytes=self.trace.data[:] if self.trace is not None else None,
            cache_stats=self.cache.stats if self.cache is not None else None,
            cache_config=self.cache.config if self.cache is not None else None,
            answers=self.answers,
            counters=self.counters,
            answer_marks=self.answer_marks,
            index_stats=dict(self.index_stats),
        )


def _plain_stats(stats: StatsCollector) -> StatsCollector:
    """Reduce a collector to the exact base class for serialisation.

    An observed collector carries tracer/profiler references that must
    never reach a pickle (worker hand-off or disk cache); the counters
    themselves are identical to an unobserved run's, so the copy is
    bit-for-bit what the plain collector would have held.
    """
    if type(stats) is StatsCollector:
        return stats
    plain = StatsCollector()
    plain.merge(stats)
    plain.module = stats.module
    plain.predicate = stats.predicate
    return plain


@dataclass
class RunSummary:
    """Picklable essence of a :class:`CollectedRun`.

    This is what worker processes return to the parent and what the
    persistent run cache stores: the stats counters (compact — routine
    objects pickle by registry name), the packed trace, and the online
    cache's statistics.  The live machine is deliberately dropped; it
    holds unpicklable interpreter state and none of the paper's numbers
    need it.

    ``trace_bytes`` is the packed trace as a bytes-like ``array('q')``
    (the :attr:`TraceRecorder.data` layout), which :meth:`to_collected_run`
    adopts without a copy; ``None`` when no trace was recorded or asked
    for.
    """

    goal: str
    succeeded: bool
    solutions: int
    stats: StatsCollector
    trace_bytes: array | None
    cache_stats: CacheStats | None
    cache_config: CacheConfig | None
    #: Canonical answers and counter snapshot, carried verbatim so
    #: cache-served and worker-shipped runs stay crosscheckable.
    answers: tuple[Answer, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    #: Per-answer microstep marks (see :attr:`CollectedRun.answer_marks`).
    answer_marks: tuple[int, ...] = ()
    #: Clause-selection counters (see :attr:`CollectedRun.index_stats`).
    index_stats: dict[str, int] = field(default_factory=dict)
    #: Observability metrics snapshot (plain dict) when the producing
    #: process ran with obs enabled.  Set only on summaries shipped
    #: from ``run_many`` workers to the parent — :meth:`to_summary`
    #: leaves it ``None``, so the persistent run cache (which stores
    #: ``to_summary()`` output) never contains derived obs data.
    metrics: dict | None = None

    def to_collected_run(self) -> CollectedRun:
        """Rebuild a table-ready :class:`CollectedRun` (``machine=None``)."""
        trace = (TraceRecorder(self.trace_bytes)
                 if self.trace_bytes is not None else None)
        cache = None
        if self.cache_stats is not None:
            cache = Cache(self.cache_config or CacheConfig())
            cache.stats = self.cache_stats
        return CollectedRun(self.goal, self.succeeded, self.solutions,
                            self.stats, trace, cache, machine=None,
                            answers=self.answers, counters=self.counters,
                            answer_marks=self.answer_marks,
                            index_stats=dict(self.index_stats))


def _totals_from_stats(stats: StatsCollector) -> tuple[list, list]:
    """Per-area / per-command access totals in the shape
    :meth:`repro.memsys.Cache.access_many_packed` expects, taken from
    the collector instead of a counting pass over the packed trace.
    Equality with :func:`repro.memsys.cache.count_entries_packed` is
    pinned by tests/tools/test_collect_and_pmms.py."""
    from repro.core.memory import AREAS
    from repro.core.micro import CMD_BY_CODE

    area_totals = [0] * len(AREAS)
    cmd_totals = [0] * len(CMD_BY_CODE)
    for (cmd, area), n in stats.mem_counts.items():
        area_totals[area] += n
        cmd_totals[cmd.code] += n
    return area_totals, cmd_totals


def collect(program: str, goal: str, *,
            all_solutions: bool = False,
            record_trace: bool = True,
            with_cache: bool = True,
            cache_config: CacheConfig | None = None,
            machine_config: MachineConfig | None = None,
            stats_collector: StatsCollector | None = None,
            setup_goals: tuple[str, ...] = ()) -> CollectedRun:
    """Load ``program``, run ``goal``, return the collected data.

    ``setup_goals`` run before measurement starts (their traffic is
    excluded) — used by workloads that build input data first.

    ``stats_collector`` substitutes an instrumented collector (e.g. the
    sequence miner's recording subclass) for the plain one.  Such runs
    are measurement-internal, so no observation session is opened for
    them even when :func:`repro.obs.enabled` is on.
    """
    machine = PSIMachine(config=machine_config)
    machine.consult(program)
    for setup in setup_goals:
        if machine.run(setup) is None:
            raise RuntimeError(f"setup goal failed: {setup}")
    # Fresh collectors so measurement excludes loading and setup.  The
    # enabled() flag is consulted exactly once per run: when off, the
    # machine gets the plain collector and no obs object exists.
    session = None
    if stats_collector is not None:
        stats = stats_collector
    else:
        session = obs.begin_run(goal) if obs.enabled() else None
        stats = session.collector if session is not None else StatsCollector()
    machine.stats = stats
    machine.mem.stats = stats
    machine.wf.stats = stats
    trace = TraceRecorder() if record_trace else None
    cache = Cache(cache_config or CacheConfig()) if with_cache else None
    # Deferred cache replay: without an observation session nothing
    # reads ``cache.stats`` mid-run (the window sampler is the only
    # live consumer), so the cache need not listen online.  Feeding it
    # the packed trace afterwards — :meth:`Cache.access_many_packed`
    # is access-for-access equivalent — keeps the memory system on its
    # single-listener fast path for the whole run.
    cache_feed = None
    if cache is not None and session is None:
        cache_feed = trace if trace is not None else TraceRecorder()
    recorder = trace if trace is not None else cache_feed
    if recorder is not None:
        machine.mem.attach(recorder)
    if cache is not None and cache_feed is None:
        machine.mem.attach(cache)
    if session is not None:
        machine.mem.observer = session.stack_observer
        # Driven by the collector's billing path, not a mem listener:
        # keeps the fan-out on the single-listener fast path.
        session.cache_sampler(cache)

    solver = machine.solve(goal)
    # Manual iteration (exactly what ``solver.all()`` does) so each
    # solution can be paired with the trace length at the moment it was
    # decoded — the answer → microstep marks the time-travel explorer's
    # differential mode seeks by.  Marks are taken only from the
    # caller-requested trace (they index into it; the internal
    # cache-feed recorder is not returned, and whether it exists
    # depends on the obs session — summaries must not).  Reading
    # ``len(trace.data)`` between solutions is a pure observation of
    # already-recorded state, so the emission stream is identical to
    # an unmarked run.
    captured = []
    marks: list[int] = []
    if all_solutions:
        while True:
            solution = solver.next()
            if solution is None:
                break
            captured.append(solution)
            if trace is not None:
                marks.append(len(trace.data))
        solutions = len(captured)
        succeeded = solutions > 0
    else:
        solution = solver.next()
        succeeded = solution is not None
        solutions = 1 if succeeded else 0
        captured = [solution] if succeeded else []
        if succeeded and trace is not None:
            marks.append(len(trace.data))
    # Canonical answer capture is pure term manipulation over the
    # solver's (unbilled) decode output — the emission stream and all
    # statistics are exactly those of an uncaptured run.
    answers = tuple(canonical_answer(s.bindings) for s in captured)

    if recorder is not None:
        machine.mem.detach(recorder)
    if cache is not None:
        if cache_feed is not None:
            # The collector already holds the per-(command, area) access
            # totals — billing and trace notification are paired at
            # every memory-system site — so the replay can skip its
            # counting pass over the packed trace.
            cache.access_many_packed(cache_feed.data,
                                     totals=_totals_from_stats(stats))
        else:
            machine.mem.detach(cache)
    observation = None
    if session is not None:
        machine.mem.observer = None
        # Clause-selection counters live on the machine, not the
        # collector, so they flow into the metrics registry here.
        # Faithful runs contribute zeros (the counters never move
        # unless ``MachineConfig.indexed`` is on).
        for key, value in machine.index_stats.items():
            session.metrics.counter(f"psi.index.{key}").inc(value)
        observation = session.finish(cache)
        obs.record_run(observation)
    return CollectedRun(goal, succeeded, solutions, stats, trace, cache,
                        machine, observation,
                        answers=answers, counters=dict(machine.counters),
                        answer_marks=tuple(marks),
                        index_stats=dict(machine.index_stats))
