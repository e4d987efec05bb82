"""Per-run observability session: the glue between machine and obs.

One :class:`ObsSession` instruments exactly one collected run.  It
owns the run's :class:`~repro.obs.trace.Tracer`,
:class:`~repro.obs.profile.MicroProfile` and per-run
:class:`~repro.obs.metrics.MetricsRegistry`, and provides the three
attachment points :func:`repro.tools.collect.collect` uses:

* :attr:`ObsSession.collector` — an :class:`ObservedStatsCollector`
  (drop-in for :class:`~repro.core.stats.StatsCollector`) that keeps a
  deterministic microstep clock, counts every emission into one table
  per predicate (attribution happens per predicate switch, not per
  emission), traces predicate slices and sampled microroutine
  emissions;
* :meth:`ObsSession.cache_sampler` — a sampler that, driven by the
  collector's billing path, records only where each fixed window of
  accounted accesses ends in the run's packed cache feed; the cache's
  windowed hit ratios are derived from those cuts after the run;
* :attr:`ObsSession.stack_observer` — a
  :class:`~repro.core.memory.MemorySystem` observer logging stack-area
  reclaim events (the PSI reclaims stacks by truncation on
  proceed/TRO/backtrack — it has no garbage collector) as compact
  counter samples in the ``stacks`` ring buffer.

Live, a session records only what must be known while the run
executes; everything else is derived once afterwards, so an observed
run keeps the memory system on the same packed-trace path as a plain
one.  Per emission the collector adds only a clock advance and a
sampling countdown to the base counting; the ``(predicate, module)``
profile is read off the per-predicate tables when the run closes.
When observability is disabled none of this is
constructed: the machine runs on the plain collector and the only
residue of the subsystem is a handful of attribute stores per *call*
(never per step).  The cost of leaving it on is perfbench's
``observe`` workload (``obs.overhead_pct`` under ``--trace 1``).

The finished artifact is a :class:`RunObservation` — trace + profile +
metrics snapshot — attached to the
:class:`~repro.tools.collect.CollectedRun` but deliberately **not** to
its :class:`~repro.tools.collect.RunSummary`: observability output is
derived from execution and is never stored in the PR-1 disk cache
(only the picklable metrics snapshot crosses the ``run_many`` worker
boundary, to be merged into the parent's registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import IO

from repro.core import micro as _micro
from repro.core.memory import Area
from repro.core.stats import N_AREAS, StatsCollector
from repro.core.micro import (
    MEM_PAIR_BASE,
    MEM_STEPS,
    MODULE_BY_INDEX,
    N_MODULES,
    Module,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import MicroProfile
from repro.obs.trace import (
    TRACK_CACHE,
    TRACK_CALLS,
    TRACK_MICRO,
    TRACK_STACKS,
    Tracer,
)


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of one observability session (see ``docs/OBSERVABILITY.md``)."""

    #: ring-buffer capacity per trace track
    trace_capacity: int = 65536
    #: record one microroutine span per this many emissions
    micro_sample_interval: int = 512
    #: sample the cache hit ratio once per this many memory accesses
    cache_window: int = 8192


class ObservedStatsCollector(StatsCollector):
    """A stats collector that additionally feeds tracer and profiler.

    The deterministic clock :attr:`now` is the cumulative microstep
    count of everything emitted so far; all trace timestamps come from
    it, which is why traces are reproducible bit-for-bit.

    Counting goes through the same flat per-id lists as the base
    collector, so an observed run bills identically to a plain one
    (``tests/core/test_stream_equivalence.py`` pins this).  Profiler
    attribution happens per predicate switch, not per emission: the
    collector keeps one flat pair-count table per predicate label, and
    storing :attr:`predicate` (the machine does so a few times per
    call) makes that predicate's table the active ``_pair_counts``.
    Emissions then count into the right table with the base
    collector's own increment, and per emission the only obs work left
    is advancing the clock and the micro-sample and cache-window ticks.
    :meth:`close` derives the ``(predicate, module)`` profile from the
    tables and folds them into one flat list, after which every
    reporting view reads the run's totals.  Before :meth:`close` the
    views see only the active predicate's counts.

    A predicate's slice on the ``calls`` track opens at its first
    emission, as if the collector watched every emission: a store
    commits the previously stored predicate's slice only when the
    clock has moved since that store, so a predicate that is stored
    but never emits opens no slice (A, B, A with no emission under B
    keeps one slice for A).
    """

    __slots__ = ("tracer", "profile", "now", "_pred", "_since",
                 "_open_pred", "_tables", "_micro_interval", "_micro_left",
                 "_cache_sampler", "_win_left")

    #: window countdown when no cache sampler is attached: the
    #: per-access tick never reaches zero
    _NO_WINDOW = 1 << 62

    def __init__(self, tracer: Tracer, profile: MicroProfile,
                 micro_sample_interval: int = 512):
        self._tables: dict[str, list[int]] | None = None
        super().__init__()
        # The first predicate's table is the base collector's own list.
        self._tables = {self._pred: self._pair_counts}
        self.tracer = tracer
        self.profile = profile
        self.now = 0
        self._since = 0
        self._open_pred: str | None = None
        self._micro_interval = micro_sample_interval
        #: emissions left until the next ``micro`` sample
        self._micro_left = micro_sample_interval
        self._cache_sampler = None
        #: accounted accesses left until the next cache-window cut
        self._win_left = self._NO_WINDOW

    def attach_cache_sampler(self, sampler: "CacheWindowSampler") -> None:
        """Drive ``sampler`` from this collector's accounted accesses."""
        self._cache_sampler = sampler
        self._win_left = sampler.window

    # -- predicate context ------------------------------------------------------

    @property
    def predicate(self) -> str:
        return self._pred

    @predicate.setter
    def predicate(self, label: str) -> None:
        tables = self._tables
        if tables is None:              # closed: counting only
            self._pred = label
            return
        self.sync()
        self._since = self.now
        self._pred = label
        table = tables.get(label)
        if table is None:
            table = tables[label] = [0] * _micro.pair_space()
        self._pair_counts = table

    def sync(self) -> None:
        """Open the current predicate's slice if it has emitted.

        The clock has moved since the predicate was stored once it has
        billed steps, and it began billing at the clock of that store.
        Slices open lazily, at the next store; a track whose first
        event is recorded meanwhile would otherwise take its place in
        the tracer's buffer order (the tie order of
        :meth:`~repro.obs.trace.Tracer.events`) ahead of ``calls``, so
        the sampled tracks call this before they record.
        """
        if self._pred is not self._open_pred and self.now != self._since:
            self._open_pred = self._pred
            self.tracer.begin_slice(TRACK_CALLS, self._pred, self._since)

    # -- recording overrides ---------------------------------------------------

    def emit(self, routine, times: int = 1) -> None:
        module = self.module
        index = routine.pair_base + module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times
        steps = routine.n_steps * times
        self.now += steps
        left = self._micro_left - times
        if left > 0:
            self._micro_left = left
        else:
            self._micro_left = self._micro_interval
            self.sync()
            self.tracer.complete(TRACK_MICRO, routine.name, self.now - steps,
                                 steps, {"module": module.value})

    def emit_in(self, module, routine, times: int = 1) -> None:
        index = routine.pair_base + module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times
        self.now += routine.n_steps * times

    def mem_access(self, cmd, area) -> None:
        code = cmd.code
        self._mem_counts[code * N_AREAS + area] += 1
        index = MEM_PAIR_BASE[code] + self.module.idx
        try:
            self._pair_counts[index] += 1
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += 1
        self.now += MEM_STEPS[code]
        left = self._win_left - 1
        if left:
            self._win_left = left
        else:
            self._win_left = self._cache_sampler.window
            self._cache_sampler.sample()

    def mem_access_n(self, cmd, area, times: int) -> None:
        code = cmd.code
        self._mem_counts[code * N_AREAS + area] += times
        index = MEM_PAIR_BASE[code] + self.module.idx
        try:
            self._pair_counts[index] += times
        except IndexError:
            self._grow_pairs(index)
            self._pair_counts[index] += times
        self.now += MEM_STEPS[code] * times
        left = self._win_left - times
        if left > 0:
            self._win_left = left
        else:
            self._win_left = self._cache_sampler.window
            self._cache_sampler.sample()

    def emit_fused(self, fused) -> None:
        """Replay a superinstruction unfused through the observed paths.

        The machine's fused dispatch is gated on the *exact* base
        collector class, so observed runs normally never see this call;
        it exists so a superinstruction applied to any collector kind
        lands in identical buckets (the replay's bills count into the
        active predicate's table like any other emission).
        """
        fused.replay(self)

    def emit_fused_dyn(self, fused) -> None:
        fused.replay(self)

    def close(self) -> None:
        """End the open predicate slice; derive the profile; fold the
        per-predicate tables into the run's flat counts."""
        tables = self._tables
        if tables is None:
            return
        self.sync()
        self.tracer.finish(self.now)
        self._open_pred = None
        self._tables = None
        routines = _micro.routines_by_rid()
        add = self.profile.add
        totals = [0] * max(map(len, tables.values()))
        for label, table in tables.items():
            by_module = [0] * N_MODULES
            for index in compress(range(len(table)), table):
                n = table[index]
                totals[index] += n
                module, rid = index % N_MODULES, index // N_MODULES
                by_module[module] += routines[rid].n_steps * n
            for module in compress(range(N_MODULES), by_module):
                add(label, MODULE_BY_INDEX[module], by_module[module])
        self._pair_counts = totals


#: ``stacks`` counter name per area value, e.g. ``top.local``
_TOP_NAMES = tuple(f"top.{area.name.lower()}" for area in Area)


class StackObserver:
    """Logs stack reclaim events (:meth:`MemorySystem.settop`).

    The PSI frees stack space exclusively by truncation — on proceed,
    tail-recursion reclaim and backtracking — so each ``settop`` that
    shrinks an area is one "GC-free" deallocation event: a counter
    sample of the new top on the ``stacks`` track.

    Live, an event is one compact counter sample (the
    :meth:`~repro.obs.trace.Tracer.counter` form) appended straight to
    the ``stacks`` ring buffer, which keeps the newest
    ``trace_capacity`` records and counts the rest as dropped, so a
    long run holds O(capacity) records and nothing is left to convert
    when the session finishes.
    """

    __slots__ = ("tracer", "collector", "log")

    def __init__(self, tracer: Tracer, collector: ObservedStatsCollector):
        self.tracer = tracer
        self.collector = collector
        #: the ``stacks`` ring buffer, from the first record on
        self.log = ()

    def on_settop(self, area, offset: int, old_top: int) -> None:
        if offset < old_top:
            if not self.log:
                # The track takes its place in the tracer's buffer
                # order (the tie order of ``events()``) at its first
                # record.
                self.collector.sync()
                self.log = self.tracer.buffer(TRACK_STACKS)
            self.log.append((self.collector.now, _TOP_NAMES[area], offset))


class CacheWindowSampler:
    """The cache's hit ratio over windows of accounted accesses.

    Driven by the observed collector's billing path: the collector
    counts accounted accesses inline and calls :meth:`sample` once per
    ``window``.  A sample records only the cut — how many accesses the
    run's packed cache feed holds, and the clock.  Billing precedes
    the trace append at every memory-system site, so a cut is exactly
    the access count the cache has replayed when it reaches that point
    of the run (one landing inside a block access falls before the
    block's remaining words).

    After the run, :meth:`replay` feeds the packed trace to the cache
    segment by segment and, per cut, emits a hit-ratio counter event
    on the ``cache`` track and a ``psi.cache.window_hit_ratio``
    histogram observation.
    """

    __slots__ = ("feed", "tracer", "histogram", "collector", "window",
                 "cuts")

    def __init__(self, feed, tracer: Tracer, histogram,
                 collector: ObservedStatsCollector, window: int = 8192):
        self.feed = feed
        self.tracer = tracer
        self.histogram = histogram
        self.collector = collector
        self.window = window
        self.cuts: list[tuple[int, int]] = []

    def sample(self) -> None:
        if not self.cuts:
            self.collector.sync()               # see StackObserver
            self.tracer.buffer(TRACK_CACHE)
        self.cuts.append((len(self.feed), self.collector.now))

    def replay(self, cache, totals) -> None:
        """Feed the whole packed trace to ``cache``, emitting each window.

        ``totals`` are the run's per-area / per-command access totals
        (:meth:`~repro.memsys.Cache.access_many_packed`).  A replay
        derives hits as totals minus misses, so the segments before the
        last pass zero totals and the last one settles every segment's
        hits; a window's hits are its length minus its misses.
        """
        data = self.feed
        area_totals, cmd_totals = totals
        zero = ([0] * len(area_totals), [0] * len(cmd_totals))
        stats = cache.stats
        start = 0
        misses = stats.misses
        for cut, ts in self.cuts:
            cache.access_many_packed(data[start:cut], totals=zero)
            accesses = cut - start
            window_hits = accesses - (stats.misses - misses)
            ratio = 100.0 * window_hits / accesses if accesses else 100.0
            self.tracer.counter(TRACK_CACHE, "hit_ratio", ts, round(ratio, 3))
            self.histogram.observe(ratio)
            start, misses = cut, stats.misses
        cache.access_many_packed(data[start:], totals=totals)


@dataclass
class RunObservation:
    """The finished observability artifact of one collected run."""

    goal: str
    tracer: Tracer
    profile: MicroProfile
    metrics_snapshot: dict
    total_steps: int

    # -- export convenience -----------------------------------------------------

    def write_jsonl(self, fp: IO[str]) -> int:
        return self.tracer.to_jsonl(fp)

    def write_chrome(self, fp: IO[str], name: str = "PSI") -> int:
        return self.tracer.to_chrome(fp, process_name=name)

    def write_collapsed(self, fp: IO[str], root: str | None = None) -> int:
        return self.profile.write_collapsed(fp, root=root)

    def top_table(self, top: int = 10) -> str:
        return self.profile.top_table(top)


class ObsSession:
    """Instrumentation for one run; see the module docstring."""

    def __init__(self, goal: str, config: ObsConfig | None = None):
        self.goal = goal
        self.config = config or ObsConfig()
        self.tracer = Tracer(capacity=self.config.trace_capacity)
        self.profile = MicroProfile()
        self.metrics = MetricsRegistry()
        self.collector = ObservedStatsCollector(
            self.tracer, self.profile,
            micro_sample_interval=self.config.micro_sample_interval)
        self.stack_observer = StackObserver(self.tracer, self.collector)

    def cache_sampler(self, feed) -> CacheWindowSampler:
        """Sample windows of ``feed``, the packed trace the cache replays."""
        histogram = self.metrics.histogram("psi.cache.window_hit_ratio")
        sampler = CacheWindowSampler(feed, self.tracer, histogram,
                                     self.collector,
                                     window=self.config.cache_window)
        self.collector.attach_cache_sampler(sampler)
        return sampler

    def finish(self, cache=None) -> RunObservation:
        """Close the trace, derive the per-run metrics, build the artifact.

        ``cache``, when given, must already have replayed the run.
        """
        collector = self.collector
        collector.close()
        metrics = self.metrics
        metrics.counter("psi.runs").inc()
        metrics.counter("psi.microsteps").inc(collector.total_steps)
        metrics.counter("psi.inferences").inc(collector.inferences)
        metrics.counter("psi.builtin_calls").inc(collector.builtin_calls)
        metrics.counter("psi.mem.accesses").inc(collector.total_mem_accesses)
        for cmd, count in collector.cache_command_counts().items():
            metrics.counter(f"psi.mem.cmd.{cmd.value}").inc(count)
        module_steps = collector.module_steps()
        for module in Module:
            metrics.counter(f"psi.module.{module.value}.steps").inc(
                module_steps.get(module, 0))
        for field, counts in collector.wf_field_counts().items():
            for mode, count in counts.items():
                metrics.counter(f"psi.wf.{field}.{mode.value}").inc(count)
        if collector.inferences:
            metrics.gauge("psi.steps_per_inference").set(
                collector.total_steps / collector.inferences)
        if cache is not None:
            stats = cache.stats
            metrics.counter("psi.cache.hits").inc(stats.hits)
            metrics.counter("psi.cache.misses").inc(stats.misses)
            metrics.counter("psi.cache.block_fetches").inc(stats.block_fetches)
            metrics.counter("psi.cache.writebacks").inc(stats.writebacks)
            metrics.gauge("psi.cache.hit_ratio").set(stats.hit_ratio)
        metrics.counter("psi.trace.events").inc(len(self.tracer))
        metrics.counter("psi.trace.dropped").inc(
            sum(self.tracer.dropped.values()))
        return RunObservation(
            goal=self.goal,
            tracer=self.tracer,
            profile=self.profile,
            metrics_snapshot=metrics.snapshot(),
            total_steps=collector.total_steps,
        )
