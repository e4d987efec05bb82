"""Per-run observability session: the glue between machine and obs.

One :class:`ObsSession` instruments exactly one collected run.  It
owns the run's :class:`~repro.obs.trace.Tracer`,
:class:`~repro.obs.profile.MicroProfile` and per-run
:class:`~repro.obs.metrics.MetricsRegistry`, and provides the three
attachment points :func:`repro.tools.collect.collect` uses:

* :attr:`ObsSession.collector` — an :class:`ObservedStatsCollector`
  (drop-in for :class:`~repro.core.stats.StatsCollector`) that logs
  every bill in order, marks predicate stores in that log, and derives
  the deterministic microstep clock, the predicate slices, the sampled
  microroutine spans and the ``(predicate, module)`` profile from it;
* :meth:`ObsSession.cache_sampler` — a sampler holding where each
  fixed window of accounted accesses ends in the run's packed cache
  feed (the collector's billing walk finds the cuts); the cache's
  windowed hit ratios are derived from those cuts after the run;
* :attr:`ObsSession.stack_observer` — a
  :class:`~repro.core.memory.MemorySystem` observer marking stack-area
  reclaim events (the PSI reclaims stacks by truncation on
  proceed/TRO/backtrack — it has no garbage collector) in the billing
  log; the walk turns them into counter samples in the ``stacks`` ring
  buffer.

Live, a session records only the order of the run's bills; everything
else is derived afterwards, so an observed run takes the same fused
dispatch and packed-trace path as a plain one.
When observability is disabled none of this is
constructed: the machine runs on the plain collector and the only
residue of the subsystem is a handful of attribute stores per *call*
(never per step).  The cost of leaving it on is perfbench's
``observe`` workload (``obs.overhead_pct`` under ``--trace 1``).

The finished artifact is a :class:`RunObservation` — trace + profile +
metrics snapshot — attached to the
:class:`~repro.tools.collect.CollectedRun` but deliberately **not** to
its :class:`~repro.tools.collect.RunSummary`: observability output is
derived from execution and is never stored in the disk cache.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import IO

from repro.core import fusion
from repro.core import micro as _micro
from repro.core.memory import Area
from repro.core.stats import N_AREAS, StatsCollector
from repro.core.micro import (
    CMD_BY_CODE,
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


#: Kinds of the observed collector's own bills in its billing log.  A
#: bill's code is ``times << _TIMES | kind | index``: the pair index
#: for an emission, ``mem_index * N_MODULES + module.idx`` for a memory
#: access.  Every such code is at least ``1 << 20``, above every
#: superinstruction code (:func:`repro.core.fusion.slot_space`).
_EMIT = 1 << 20                 # emit: counts toward the micro samples
_EMIT_IN = 2 << 20              # emit_in: bills under a named module
_MEM = 3 << 20                  # memory access(es)
_TIMES = 22
_INDEX_MASK = (1 << 20) - 1
_MEM1 = (1 << _TIMES) | _MEM

#: Field width of the packed per-code values the billing walk sums:
#: clock steps, micro ticks, accounted accesses, then the steps of each
#: module (the profile), one field each.
_W = 64
_FIELD = (1 << _W) - 1
_NEVER = 1 << 62               # a countdown that never runs out

#: Pending log entries that make the predicate setter derive the views
#: logged so far, which bounds an observed run's memory.
_LOG_LIMIT = 1 << 16

#: Per log code, learned once per process (:func:`_learn`): its packed
#: sums, and its per-op stream.  Both are a pure function of the code
#: (the micro registry only grows; a routine id is never reused), so
#: every collector shares them.
_VALUES: dict[int, int] = {}
_STREAMS: dict[int, tuple] = {}


class ObservedStatsCollector(StatsCollector):
    """A stats collector that additionally feeds tracer and profiler.

    The deterministic clock :attr:`now` is the cumulative microstep
    count of everything billed up to the last walk (the whole run after
    :meth:`close`); all trace timestamps come from it, which is why
    traces are reproducible bit-for-bit.

    The machine runs its fused path for this collector as for a plain
    one.  Nothing is derived live: every bill joins the one ordered
    billing log ``_log`` — the fused sites' superinstruction codes and
    this collector's own ``emit``/``emit_in``/``mem_access`` codes —
    and each predicate store and stack reclaim is noted as a mark at
    its position in that log.  :meth:`_walk` reads log and marks once,
    in order, and derives what the per-op loop used to record as it
    went: the clock, the ``calls`` slices, a ``micro`` span per
    ``micro_sample_interval`` emissions, the cache-window cuts, the
    ``stacks`` counter samples and the ``(predicate, module)`` profile.
    The clock at a log position is read off prefix sums of precomputed
    per-code values; only a log entry holding a sample is expanded into
    its per-op stream (a superinstruction's ``stream``), so each sample
    lands on the same op, at the same clock, as in the per-op loop.

    The walk runs when a reporting view is read, when the pending
    marks reach the trace capacity or the log :data:`_LOG_LIMIT`
    entries (at a predicate store), and at :meth:`close`, which also
    ends the trace.  After :meth:`close` the collector only counts.

    A predicate's slice on the ``calls`` track opens at its first
    emission, as if the collector watched every emission: a store
    commits the previously stored predicate's slice only when the
    clock has moved since that store, so a predicate that is stored
    but never emits opens no slice (A, B, A with no emission under B
    keeps one slice for A).
    """

    __slots__ = ("tracer", "profile", "now", "_pred", "_marks",
                 "_mark_limit", "_closed",
                 "_micro_interval", "_micro_left", "_window", "_win_left",
                 "_cuts", "_accesses", "_walk_pred", "_since", "_open_pred",
                 "_steps", "_stacks")

    def __init__(self, tracer: Tracer, profile: MicroProfile,
                 micro_sample_interval: int = 512):
        self._marks = None
        super().__init__()
        self._log = []
        #: ``(position in _log, label, None)`` per predicate store and
        #: ``(position, counter name, offset)`` per stack reclaim
        self._marks: list[tuple] = []
        self._mark_limit = tracer.capacity
        self._closed = False
        self.tracer = tracer
        self.profile = profile
        # Walk state: where the walk has got to in the run.
        self.now = 0
        self._micro_interval = micro_sample_interval
        self._micro_left = micro_sample_interval
        self._window = self._win_left = _NEVER
        self._cuts: list | None = None
        self._accesses = 0
        self._walk_pred = self._pred
        self._since = 0
        self._open_pred: str | None = None
        #: packed per-module steps per predicate, in first-store order
        self._steps = {self._pred: 0}
        self._stacks = None

    def attach_cache_sampler(self, sampler: "CacheWindowSampler") -> None:
        """Cut ``sampler``'s windows from this collector's accesses."""
        self._window = self._win_left = sampler.window
        self._cuts = sampler.cuts

    # -- predicate context ------------------------------------------------------

    @property
    def predicate(self) -> str:
        return self._pred

    @predicate.setter
    def predicate(self, label: str) -> None:
        self._pred = label
        marks = self._marks
        if marks is None or self._closed:     # constructing or closed
            return
        if len(marks) >= self._mark_limit or len(self._log) >= _LOG_LIMIT:
            self._walk()
        marks.append((len(self._log), label, None))

    def mark_reclaim(self, name: str, offset: int) -> None:
        """Note a stack reclaim (``stacks`` counter ``name`` falls to
        ``offset``) at the current place of the billing log."""
        marks = self._marks
        if len(marks) >= self._mark_limit:
            self._walk()
        marks.append((len(self._log), name, offset))

    # -- recording overrides ---------------------------------------------------

    def emit(self, routine, times: int = 1) -> None:
        self._log.append((times << _TIMES) + _EMIT + routine.pair_base
                         + self.module.idx)

    def emit_in(self, module, routine, times: int = 1) -> None:
        self._log.append((times << _TIMES) + _EMIT_IN + routine.pair_base
                         + module.idx)

    def mem_access(self, cmd, area) -> None:
        self._log.append(_MEM1 + (cmd.code * N_AREAS + area) * N_MODULES
                         + self.module.idx)

    def mem_access_n(self, cmd, area, times: int) -> None:
        self._log.append((times << _TIMES) + _MEM
                         + (cmd.code * N_AREAS + area) * N_MODULES
                         + self.module.idx)

    # -- counting ---------------------------------------------------------------

    def _flush_log(self) -> None:
        if self._closed:
            super()._flush_log()
        else:
            self._walk()

    def _bill(self, code: int, n: int) -> None:
        if code < _EMIT:
            super()._bill(code, n)
            return
        times = (code >> _TIMES) * n
        index = code & _INDEX_MASK
        if code & _MEM != _MEM:
            pair = index
        else:
            mem_index, midx = divmod(index, N_MODULES)
            self._mem_counts[mem_index] += times
            pair = MEM_PAIR_BASE[mem_index // N_AREAS] + midx
        if pair >= len(self._pair_counts):
            self._grow_pairs(pair)
        self._pair_counts[pair] += times

    # -- the billing walk -------------------------------------------------------

    def _walk(self) -> None:
        """Derive every clock-stamped view of the pending log and marks,
        then count the log and drop both.

        The clock at a log position is one lookup in the prefix sums of
        the logged codes' packed values; samples are found by bisecting
        those sums, so only the entries holding one are billed op by op.
        """
        log, marks = self._log, self._marks
        counts = Counter(log)
        for code in counts.keys() - _VALUES.keys():
            _learn(code)
        prefix = list(accumulate(map(_VALUES.__getitem__, log), initial=0))
        end = len(log)
        now0, acc0 = self.now, self._accesses
        micro, self._micro_left = _countdown(
            log, prefix, 1, self._micro_left, self._micro_interval)
        cuts, self._win_left = _countdown(
            log, prefix, 2, self._win_left, self._window)
        samples = sorted(micro + cuts)
        samples.append((end, 0, 0, 0, None))   # sentinel
        tracer = self.tracer
        steps_by_pred = self._steps
        since, pred, open_pred = self._since, self._walk_pred, self._open_pred
        stacks = self._stacks

        def sync(now):
            # Open the walked predicate's slice if it has emitted: the
            # clock has moved since its store, and it began billing at
            # the clock of that store.
            nonlocal open_pred
            if pred is not open_pred and now != since:
                open_pred = pred
                tracer.begin_slice(TRACK_CALLS, pred, since)

        next_sample = iter(samples).__next__
        entry, _k, clock, accessed, element = next_sample()
        seg = 0
        for pos, name, offset in chain(marks, ((end, None, None),)):
            while entry < pos:
                # A sample billed within log entry ``entry``.
                steps = element[0]
                now = now0 + clock + steps
                if element[1]:
                    sync(now)
                    tracer.complete(TRACK_MICRO, element[3], now - steps,
                                    steps, {"module": element[4]})
                else:
                    if not self._cuts:
                        sync(now)
                        tracer.buffer(TRACK_CACHE)
                    self._cuts.append((acc0 + accessed, now))
                entry, _k, clock, accessed, element = next_sample()
            if name is None:                    # the end of the log
                break
            now = now0 + (prefix[pos] & _FIELD)
            if offset is None:                  # a predicate store
                sync(now)
                steps_by_pred[pred] += prefix[pos] - prefix[seg]
                seg = pos
                since = now
                pred = name
                if name not in steps_by_pred:
                    steps_by_pred[name] = 0
            else:                               # a stack reclaim
                if stacks is None:
                    # The track takes its place in the tracer's buffer
                    # order (the tie order of ``events()``) at its
                    # first record.
                    sync(now)
                    stacks = tracer.buffer(TRACK_STACKS)
                stacks.append((now, name, offset))
        steps_by_pred[pred] += prefix[end] - prefix[seg]
        now = self.now = now0 + (prefix[end] & _FIELD)
        self._accesses = acc0 + (prefix[end] >> 2 * _W & _FIELD)
        self._since, self._walk_pred = since, pred
        self._open_pred, self._stacks = open_pred, stacks
        del marks[:]
        if self._closed:
            # End of run: close the open slice, read off the profile.
            sync(now)
            tracer.finish(now)
            add = self.profile.add
            for label, packed in steps_by_pred.items():
                for midx in range(N_MODULES):
                    steps = packed >> (3 + midx) * _W & _FIELD
                    if steps:
                        add(label, MODULE_BY_INDEX[midx], steps)
        del log[:]
        for code, n in counts.items():
            self._bill(code, n)

    def close(self) -> None:
        """End the run: derive the rest of the views, end the open
        predicate slice and read off the profile; counting only after."""
        if self._closed:
            return
        self._closed = True
        self._walk()


def _learn(code: int) -> None:
    """Record ``code``'s per-op stream and its packed sums.

    A stream element is ``(steps, micro ticks, accesses, routine
    name, module value)``; the packed value holds the element sums
    in :data:`_W`-bit fields: clock, micro ticks, accesses, then the
    steps under each module.
    """
    if code < _EMIT:                        # a superinstruction
        midx = code % N_MODULES
        ops = fusion.BY_SID[code // N_MODULES].stream
    else:
        times = code >> _TIMES
        index = code & _INDEX_MASK
        kind = code & _MEM
        midx = index % N_MODULES
        if kind == _MEM:
            cmd = CMD_BY_CODE[index // N_MODULES // N_AREAS]
            ops = ((cmd, 0, times),)
        else:
            routine = _micro.routines_by_rid()[index // N_MODULES]
            ops = ((routine, times),)
    module = MODULE_BY_INDEX[midx].value
    stream = []
    for op in ops:
        if len(op) == 3:
            cmd, _area, times = op
            stream.append((MEM_STEPS[cmd.code] * times, 0, times,
                           None, None))
        else:
            routine, times = op
            ticks = 0 if code >= _EMIT and kind == _EMIT_IN else times
            stream.append((routine.n_steps * times, ticks, 0,
                           routine.name, module))
    steps, ticks, accessed = (sum(column)
                              for column in list(zip(*stream))[:3])
    _VALUES[code] = (steps | ticks << _W | accessed << 2 * _W
                     | steps << (3 + midx) * _W)
    _STREAMS[code] = tuple(stream)


def _countdown(log, prefix, field: int, left: int, interval: int):
    """The samples of one countdown over the billing log.

    ``field`` picks the counted column: 1 for emissions (``micro``
    spans), 2 for accounted accesses (cache-window cuts).  As in the
    per-op loop, an op whose count takes ``left`` to zero or below
    fires a sample and restarts the countdown at ``interval``.  Returns
    the samples, each ``(entry, op index, clock before the op, accesses
    before the op, op)`` relative to the log's start, and the countdown
    left at its end.
    """
    shift = field * _W
    key = lambda value: value >> shift & _FIELD  # noqa: E731
    total = key(prefix[-1])
    samples = []
    lo = 0
    while True:
        base = key(prefix[lo])
        if total - base < left:
            return samples, left - (total - base)
        entry = bisect_left(prefix, base + left, lo + 1, len(prefix),
                            key=key) - 1
        left -= key(prefix[entry]) - base
        clock = prefix[entry] & _FIELD
        accessed = prefix[entry] >> 2 * _W & _FIELD
        for index, op in enumerate(_STREAMS[log[entry]]):
            if op[field]:
                left -= op[field]
                if left <= 0:
                    left = interval
                    samples.append((entry, index, clock, accessed, op))
            clock += op[0]
            accessed += op[2]
        lo = entry + 1


#: ``stacks`` counter name per area value, e.g. ``top.local``
_TOP_NAMES = tuple(f"top.{area.name.lower()}" for area in Area)


class StackObserver:
    """Logs stack reclaim events (:meth:`MemorySystem.settop`).

    The PSI frees stack space exclusively by truncation — on proceed,
    tail-recursion reclaim and backtracking — so each ``settop`` that
    shrinks an area is one "GC-free" deallocation event: a counter
    sample of the new top on the ``stacks`` track.

    Live, an event is one mark in the collector's billing log
    (:meth:`ObservedStatsCollector.mark_reclaim`); the billing walk
    stamps it with the clock and appends it to the ``stacks`` ring
    buffer, which keeps the newest ``trace_capacity`` records and
    counts the rest as dropped.  :attr:`log` is the collector's list
    of pending marks, which the walk empties whenever it reaches the
    trace capacity, so a long run holds O(capacity) records.
    """

    __slots__ = ("collector", "log")

    def __init__(self, collector: ObservedStatsCollector):
        self.collector = collector
        #: the pending marks (stack reclaims and predicate stores)
        self.log = collector._marks

    def on_settop(self, area, offset: int, old_top: int) -> None:
        if offset < old_top:
            self.collector.mark_reclaim(_TOP_NAMES[area], offset)


class CacheWindowSampler:
    """The cache's hit ratio over windows of accounted accesses.

    The observed collector's billing walk counts accounted accesses
    and, once per ``window``, records a cut in :attr:`cuts`: how many
    accesses the run's packed cache feed held when that access was
    billed, and the clock.  Billing precedes the trace append at every
    memory-system site, so a cut is exactly the access count the cache
    has replayed when it reaches that point of the run (one landing
    inside a block access falls before the block's remaining words).

    After the run, :meth:`replay` feeds the packed trace to the cache
    segment by segment and, per cut, emits a hit-ratio counter event
    on the ``cache`` track and a ``psi.cache.window_hit_ratio``
    histogram observation.
    """

    __slots__ = ("feed", "tracer", "histogram", "window", "cuts")

    def __init__(self, feed, tracer: Tracer, histogram, window: int = 8192):
        self.feed = feed
        self.tracer = tracer
        self.histogram = histogram
        self.window = window
        self.cuts: list[tuple[int, int]] = []

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
        self.stack_observer = StackObserver(self.collector)

    def cache_sampler(self, feed) -> CacheWindowSampler:
        """Sample windows of ``feed``, the packed trace the cache replays."""
        histogram = self.metrics.histogram("psi.cache.window_hit_ratio")
        sampler = CacheWindowSampler(feed, self.tracer, histogram,
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
