"""Shared run orchestration for the evaluation harness.

Every run is parameterized by a :class:`~repro.eval.specs.RunSpec` —
a named (engine, machine config, cache config, options) bundle — and
flows through one path, :func:`run_spec`, with three cache tiers
keeping re-interpretation (minutes per practical-scale workload) off
the hot path:

* **per-process**: Table 3, Table 4 and Table 5 analyse the same seven
  programs; within one ``psi-eval`` invocation each executes once per
  spec (memo dictionaries are keyed by spec fingerprint),
* **on disk**: collected runs persist under ``.psi-cache/`` keyed by a
  content hash of (workload source, goal, setup goals, spec
  fingerprint, code version), so *repeated* invocations skip
  interpretation too — for every PSI spec, faithful and indexed alike
  (``--no-disk-cache`` bypasses, ``psi-eval cache clear`` purges; see
  :mod:`repro.eval.run_cache` for the integrity story),
* **across processes**: :func:`run_many` fans independent workloads
  over a ``ProcessPoolExecutor``; workers ship back picklable
  :class:`~repro.tools.collect.RunSummary` objects that rebuild into
  table-ready runs.  The spec object itself is picklable and travels
  with the task, so unregistered ad-hoc specs parallelize too.

``clear_cache`` exists for tests that need isolation.  ``CACHE_EVENTS``
counts hits/misses/upgrades so callers (and tests) can observe what the
tiers actually did — each event is counted both bare (``disk_hit``) and
per spec (``disk_hit:indexed``).
"""

from __future__ import annotations

import dataclasses
import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.baseline import BaselineStats, WAMMachine
from repro.engine.answers import Answer, canonical_answer, check_expected
from repro.eval.run_cache import RunCache, run_key
from repro.eval.specs import RunSpec, get_spec
from repro.tools.collect import CollectedRun, collect
from repro.workloads import Workload, get

logger = logging.getLogger(__name__)

#: spec fingerprint -> {workload name -> run}.  One memo dict per spec,
#: filled only through :func:`_memo`; specs that share a configuration
#: share a fingerprint and hence a memo.
_MEMO: dict[str, dict] = {}

_DISK_CACHE_ENABLED = True

#: Observable cache behaviour: "disk_hit", "disk_miss", "trace_upgrade",
#: "memory_hit"; every "disk_miss" is also classified as "disk_compute"
#: (this process executed the workload inside the key lock) or
#: "disk_wait_hit" (another process stored the entry while this one
#: held or waited for the lock).  "trace_upgrade" counts only real
#: re-executions: a trace-free run of the key was already held (in
#: memory or on disk) but the caller needs the trace and no stored
#: trace could serve it.  A trace-free memo entry whose disk entry
#: carries the trace is served from disk as a plain "disk_hit".  Each
#: event increments both its bare key and a ``<event>:<spec>`` key, so
#: per-spec behaviour is observable without changing existing
#: consumers.  Reset by :func:`clear_cache`.
CACHE_EVENTS: Counter = Counter()


def set_disk_cache(enabled: bool) -> None:
    """Globally enable/disable the persistent run cache (``--no-disk-cache``)."""
    global _DISK_CACHE_ENABLED
    _DISK_CACHE_ENABLED = bool(enabled)


def disk_cache_enabled() -> bool:
    return _DISK_CACHE_ENABLED


def _memo(spec: RunSpec) -> dict:
    return _MEMO.setdefault(spec.fingerprint, {})


def _event(event: str, spec: RunSpec) -> None:
    CACHE_EVENTS[event] += 1
    CACHE_EVENTS[f"{event}:{spec.name}"] += 1


def _spec_all_solutions(workload: Workload, spec: RunSpec) -> bool:
    return (workload.all_solutions if spec.all_solutions is None
            else spec.all_solutions)


def _spec_run_key(workload: Workload, spec: RunSpec) -> str:
    return run_key(source=workload.source, goal=workload.goal,
                   setup_goals=workload.setup_goals,
                   all_solutions=_spec_all_solutions(workload, spec),
                   machine_config=spec.machine_config,
                   cache_config=spec.cache_config,
                   spec_fingerprint=spec.fingerprint)


def run_spec(name: str, spec: RunSpec | str | None = None,
             record_trace: bool = True) -> "CollectedRun | BaselineRun":
    """Run a workload under a run spec (memory- and disk-cached).

    ``spec`` is a :class:`~repro.eval.specs.RunSpec`, a registered spec
    name (``"faithful"``, ``"indexed"``, ``"unfused"``, ``"baseline"``,
    or anything added via :func:`~repro.eval.specs.register_spec`), or
    ``None`` for the process default
    (:func:`~repro.eval.specs.default_spec`, settable with the CLI's
    ``--spec``).  PSI specs return a :class:`CollectedRun`; the
    baseline engine returns a :class:`BaselineRun` (memoised per
    process, no disk tier — baseline runs are cheap and carry no
    trace).

    Cache semantics for PSI specs (see :mod:`repro.eval.run_cache` for
    the format):

    * The disk key is a content hash over the workload source, goal,
      setup goals, solution mode, the spec fingerprint, and the
      simulator code version — editing simulator code, a workload, or
      a spec's configuration silently invalidates only the affected
      entries.  The cache directory is ``.psi-cache/`` or
      ``$PSI_CACHE_DIR``.
    * The trace is always recorded on a real execution (unless the
      spec opts out), so the stored entry satisfies later
      ``record_trace=True`` callers without a second run.
    * Disk loads read the entry's trace section only when
      ``record_trace`` is true; ``record_trace=False`` callers get a
      trace-free run and never touch the trace bytes.  A later
      ``record_trace=True`` call for the same run loads the trace
      section from disk (a ``disk_hit``).
    * *Trace upgrade*: only when no stored trace can serve a
      ``record_trace=True`` caller that already holds a trace-free run
      of the key (disk tier off, or an entry stored without a trace)
      does the workload execute again — counted in
      ``CACHE_EVENTS["trace_upgrade"]`` and logged, since it is
      otherwise silent double work.

    Observability (:mod:`repro.obs`) is orthogonal: cached runs carry
    no observation (obs artifacts are derived data and never stored);
    a fresh execution with obs enabled attaches one to the returned
    run, merges its metrics into the process-global registry, and
    bumps the spec-labelled counter ``psi.run.spec.<name>``.
    """
    spec = get_spec(spec)
    if spec.engine == "baseline":
        return _run_baseline_spec(name, spec)

    memo = _memo(spec)
    cached = memo.get(name)
    if cached is not None and (cached.trace is not None or not record_trace):
        _event("memory_hit", spec)
        return cached
    # A trace-free run of this key is already held; executing again is
    # double work, made visible in execute().
    untraced = cached is not None

    workload = get(name)
    all_solutions = _spec_all_solutions(workload, spec)

    def execute() -> CollectedRun:
        if untraced:
            _event("trace_upgrade", spec)
            logger.warning(
                "run_spec(%r, %r): cached run has no trace; re-running to "
                "record one (keep the disk cache enabled and the spec's "
                "record_trace on to avoid the double execution)",
                name, spec.name)
        # Always record the trace on a real execution (unless the spec
        # opts out): the recorder is the memory system's
        # single-listener fast path, which the deferred cache replay
        # keeps busy anyway, so recording costs almost nothing — and
        # the cached run then serves every later ``record_trace=True``
        # caller without the trace-upgrade double execution.
        # Configs are copied: MachineConfig/CacheConfig are plain
        # mutable dataclasses, and a live machine aliasing the
        # registry's instances would silently corrupt the spec (and
        # its fingerprint stability).
        run = collect(workload.source, workload.goal,
                      all_solutions=all_solutions,
                      record_trace=spec.record_trace or record_trace,
                      with_cache=spec.with_cache,
                      cache_config=dataclasses.replace(spec.cache_config),
                      machine_config=dataclasses.replace(spec.machine_config),
                      setup_goals=workload.setup_goals)
        if not run.succeeded:
            raise RuntimeError(f"workload {name} failed on the PSI model "
                               f"(spec {spec.name!r})")
        _check_expected(name, spec.name, workload, run.answers, run.counters)
        if obs.enabled():
            obs.global_metrics().counter(f"psi.run.spec.{spec.name}").inc()
        return run

    if not _DISK_CACHE_ENABLED:
        run = execute()
        memo[name] = run
        return run

    # Disk tier, behind the per-key file lock: when several processes
    # (serve workers, ``run_many`` workers, parallel CLI invocations)
    # miss the same key at once, exactly one computes inside the lock
    # and the rest load its stored entry ("wait_hit").
    computed: list[CollectedRun] = []

    def compute() -> "RunSummary":
        run = execute()
        computed.append(run)
        return run.to_summary()

    def usable(summary) -> bool:
        nonlocal untraced
        if summary.trace_bytes is None and record_trace:
            untraced = True         # stored without a trace
            return False
        return True

    summary, outcome = RunCache().load_or_compute(
        _spec_run_key(workload, spec), compute, usable=usable,
        label=spec.name, trace=record_trace)
    if outcome == "hit":
        _event("disk_hit", spec)
    else:
        _event("disk_miss", spec)
        _event("disk_wait_hit" if outcome == "wait_hit"
               else "disk_compute", spec)
    if computed:
        run = computed[0]       # the live run (keeps the machine handle)
    else:
        run = summary.to_collected_run()
        _check_expected(name, spec.name, workload, run.answers, run.counters)
    memo[name] = run
    return run


def _collect_summary(name: str, record_trace: bool, disk_cache: bool,
                     obs_config, spec: RunSpec):
    """Worker-process entry point: run one workload, return its summary.

    ``obs_config`` is the parent's :class:`~repro.obs.ObsConfig` when
    observability is enabled there (workers are fresh processes, so the
    flag must travel explicitly), and ``spec`` the parent's resolved
    :class:`RunSpec` (shipped as a value — the worker does not need the
    parent's registry).  The worker attaches its run's metrics snapshot
    to the shipped summary — the one obs artifact that crosses the
    process boundary; traces and profiles stay worker-local.
    """
    set_disk_cache(disk_cache)
    if obs_config is not None:
        obs.enable(obs_config)
    run = run_spec(name, spec, record_trace=record_trace)
    summary = run.to_summary()
    if run.observation is not None:
        summary.metrics = run.observation.metrics_snapshot
    return name, summary


def run_many(names, jobs: int | None = None, record_trace: bool = True,
             spec: RunSpec | str | None = None) -> dict[str, CollectedRun]:
    """Run several workloads under one spec, optionally across processes.

    Returns ``{name: run}`` in first-seen input order.  Cache tiers are
    consulted first; only workloads that actually need execution are
    fanned out over ``jobs`` processes.  Results land in the spec's
    per-process memo, so subsequent :func:`run_spec` calls (the table
    generators) are free.  Baseline-engine specs run serially in the
    parent — baseline execution is cheap and its runs carry no
    summary form worth shipping.

    Execution order never affects results — every workload runs on a
    fresh machine — so the parallel path renders byte-identical tables
    and figures to the serial one.  That extends to observability:
    workers ship per-run metrics snapshots back with their summaries
    and the parent merges them, so the process-global metrics equal a
    serial run's (merging is commutative; runs served from a cache tier
    contribute no metrics on either path).
    """
    spec = get_spec(spec)
    ordered = list(dict.fromkeys(names))
    if spec.engine == "baseline":
        return {name: run_spec(name, spec) for name in ordered}

    memo = _memo(spec)
    pending = []
    for name in ordered:
        cached = memo.get(name)
        if cached is not None and (cached.trace is not None or not record_trace):
            continue
        if _DISK_CACHE_ENABLED:
            summary = RunCache().load(_spec_run_key(get(name), spec),
                                      trace=record_trace)
            if summary is not None and (summary.trace_bytes is not None
                                        or not record_trace):
                _event("disk_hit", spec)
                memo[name] = summary.to_collected_run()
                continue
        pending.append(name)

    if pending and jobs and jobs > 1 and len(pending) > 1:
        logger.info("run_many: executing %d workload(s) on %d processes "
                    "(spec %s)", len(pending), jobs, spec.name)
        obs_config = obs.config() if obs.enabled() else None
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = [pool.submit(_collect_summary, name, record_trace,
                                   _DISK_CACHE_ENABLED, obs_config, spec)
                       for name in pending]
            for future in futures:
                name, summary = future.result()
                if summary.metrics is not None:
                    obs.merge_snapshot(summary.metrics)
                    # A shipped snapshot means the worker really
                    # executed with obs on; mirror the spec-labelled
                    # counter the serial path bumps (the worker's
                    # process-global registry stays worker-local).
                    obs.global_metrics().counter(
                        f"psi.run.spec.{spec.name}").inc()
                run = summary.to_collected_run()
                # Workers store their own disk entries; the parent only
                # needs the in-process tier.
                memo[name] = run
    else:
        for name in pending:
            run_spec(name, spec, record_trace=record_trace)

    return {name: run_spec(name, spec, record_trace=record_trace)
            for name in ordered}


@dataclass
class BaselineRun:
    """One workload's baseline execution: stats plus captured answers.

    The captured answers and counters feed the workloads' ``expected``
    checks and the differential crosscheck; timing consumers read the
    stats through the delegating properties.
    """

    stats: BaselineStats
    answers: tuple[Answer, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    succeeded: bool = True

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms

    @property
    def time_ns(self) -> int:
        return self.stats.time_ns

    @property
    def lips(self) -> float:
        return self.stats.lips

    @property
    def inferences(self) -> int:
        return self.stats.inferences


def _check_expected(name: str, engine: str, workload: Workload,
                    answers: tuple[Answer, ...],
                    counters: dict[str, int]) -> None:
    """Raise if a workload's declared ``expected`` results don't hold."""
    problems = check_expected(workload.expected, answers=answers,
                              counters=counters)
    if problems:
        raise RuntimeError(
            f"workload {name} produced wrong results on the {engine} "
            f"engine: " + "; ".join(problems))


def _run_baseline_spec(name: str, spec: RunSpec) -> BaselineRun:
    memo = _memo(spec)
    cached = memo.get(name)
    if cached is not None:
        _event("memory_hit", spec)
        return cached
    workload = get(name)
    if workload.psi_only:
        raise ValueError(f"workload {name} uses KL0-only builtins")
    machine = WAMMachine()
    machine.consult(workload.source)
    for setup in workload.setup_goals:
        if machine.solve(setup).next() is None:
            raise RuntimeError(f"setup goal failed on the baseline: {setup}")
    # Fresh stats so measurement excludes setup, mirroring collect().
    machine.stats = BaselineStats()
    solver = machine.solve(workload.goal)
    if _spec_all_solutions(workload, spec):
        solutions = solver.all()
    else:
        first = solver.next()
        solutions = [first] if first is not None else []
    if not solutions:
        raise RuntimeError(f"workload {name} failed on the baseline")
    run = BaselineRun(stats=machine.stats,
                      answers=tuple(canonical_answer(s.bindings)
                                    for s in solutions),
                      counters=dict(machine.counters))
    _check_expected(name, spec.name, workload, run.answers, run.counters)
    if obs.enabled():
        obs.global_metrics().counter(f"psi.run.spec.{spec.name}").inc()
    memo[name] = run
    return run


def clear_cache(disk: bool = False) -> None:
    """Drop the per-process tiers; with ``disk=True`` purge ``.psi-cache`` too.

    Memo dicts are cleared *in place*, so references obtained from
    :func:`_memo` stay live.
    """
    for memo in _MEMO.values():
        memo.clear()
    CACHE_EVENTS.clear()
    if disk:
        RunCache().clear()
