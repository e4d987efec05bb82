"""Shared run orchestration for the evaluation harness.

Every run is parameterized by a :class:`~repro.eval.specs.RunSpec` —
a named (engine, machine config, cache config, options) bundle — and
flows through one path, :func:`run_spec`, for both engines (the spec's
engine only picks the machine that executes), with three cache tiers
keeping re-interpretation (minutes per practical-scale workload) off
the hot path:

* **per-process**: Table 3, Table 4 and Table 5 analyse the same seven
  programs; within one ``psi-eval`` invocation each executes once per
  spec (memo dictionaries are keyed by spec fingerprint),
* **on disk**: runs persist under ``.psi-cache/`` keyed by a content
  hash of (workload source, goal, setup goals, spec fingerprint, code
  version), so *repeated* invocations skip interpretation too — for
  every spec, baseline included (``--no-disk-cache`` bypasses,
  ``psi-eval cache clear`` purges; see :mod:`repro.eval.run_cache` for
  the integrity story),
* **across processes**: :func:`run_many` fans independent workloads
  over a ``ProcessPoolExecutor``; workers ship back picklable
  summaries (:class:`~repro.tools.collect.RunSummary`, or the
  :class:`~repro.baseline.BaselineRun` itself) that rebuild into
  table-ready runs.  The spec object itself is picklable and travels
  with the task, so unregistered ad-hoc specs parallelize too.

Tables 1–7 ask for trace-free runs (``record_trace=False``): every
number they print comes from the stats counters and the run's online
production-cache result.  Every cache study — Table 5, Figure 1, the
ablations, serve replays — takes its statistics from
:func:`cache_stats`, which loads the trace (from a warm disk tier, the
stored entry's trace section) only for configurations the stored
result does not answer.

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

from repro import obs
from repro.baseline import BaselineRun, BaselineStats, WAMMachine
from repro.engine.answers import canonical_answer, check_expected
from repro.eval.run_cache import RunCache, run_key
from repro.eval.specs import RunSpec, get_spec
from repro.tools.collect import CollectedRun, _totals_from_stats, collect
from repro.tools.pmms import simulate_many
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


def _memo(spec: RunSpec) -> dict:
    return _MEMO.setdefault(spec.fingerprint, {})


def _event(event: str, spec: RunSpec) -> None:
    CACHE_EVENTS[event] += 1
    CACHE_EVENTS[f"{event}:{spec.name}"] += 1


def _spec_all_solutions(workload: Workload, spec: RunSpec) -> bool:
    return (workload.all_solutions if spec.all_solutions is None
            else spec.all_solutions)


def _machine(spec: RunSpec, record_trace: bool):
    """``(execute, record_trace)`` for ``spec``: the one place the
    engine is consulted.  The WAM records no trace, so a baseline run
    serves every caller and never enters a trace upgrade."""
    if spec.engine == "baseline":
        return _run_wam, False
    return _run_psi, record_trace


def _run_psi(workload: Workload, spec: RunSpec,
             record_trace: bool) -> CollectedRun:
    # Always record the trace (unless the spec opts out): the deferred
    # cache replay needs it anyway, and the stored run then serves every
    # later ``record_trace=True`` caller without a trace upgrade.
    # Configs are copied so a live machine never aliases (and corrupts)
    # the registry's mutable config instances.
    run = collect(workload.source, workload.goal,
                  all_solutions=_spec_all_solutions(workload, spec),
                  record_trace=spec.record_trace or record_trace,
                  with_cache=spec.with_cache,
                  cache_config=dataclasses.replace(spec.cache_config),
                  machine_config=dataclasses.replace(spec.machine_config),
                  setup_goals=workload.setup_goals)
    if not run.succeeded:
        raise RuntimeError(f"workload {workload.name} failed on the PSI "
                           f"model (spec {spec.name!r})")
    return run


def _run_wam(workload: Workload, spec: RunSpec,
             record_trace: bool) -> BaselineRun:
    if workload.psi_only:
        raise ValueError(f"workload {workload.name} uses KL0-only builtins")
    machine = WAMMachine()
    machine.consult(workload.source)
    for setup in workload.setup_goals:
        if machine.solve(setup).next() is None:
            raise RuntimeError(f"setup goal failed on the baseline: {setup}")
    # Fresh stats so measurement excludes setup, mirroring collect().
    machine.stats = BaselineStats()
    solver = machine.solve(workload.goal)
    all_solutions = _spec_all_solutions(workload, spec)
    solutions = solver.all() if all_solutions else solver.all(1)
    if not solutions:
        raise RuntimeError(f"workload {workload.name} failed on the baseline")
    return BaselineRun(stats=machine.stats,
                       answers=tuple(canonical_answer(s.bindings)
                                     for s in solutions),
                       counters=dict(machine.counters))


def run_spec(name: str, spec: RunSpec | str | None = None,
             record_trace: bool = True) -> "CollectedRun | BaselineRun":
    """Run a workload under a run spec (memory- and disk-cached).

    ``spec`` is a :class:`~repro.eval.specs.RunSpec`, a registered spec
    name (``"faithful"``, ``"indexed"``, ``"unfused"``, ``"baseline"``,
    or anything added via :func:`~repro.eval.specs.register_spec`), or
    ``None`` for the process default
    (:func:`~repro.eval.specs.default_spec`, settable with the CLI's
    ``--spec``).  PSI specs return a :class:`CollectedRun`; the
    baseline engine returns a :class:`BaselineRun` (no trace) through
    the same tiers.

    Cache semantics (see :mod:`repro.eval.run_cache` for the format):

    * The disk key is a content hash over the workload source, goal,
      setup goals, solution mode, the spec fingerprint, and the
      simulator code version — editing simulator code, a workload, or
      a spec's configuration silently invalidates only the affected
      entries.  The cache directory is ``.psi-cache/`` or
      ``$PSI_CACHE_DIR``.
    * The trace is always recorded on a real PSI execution (unless the
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
    * Every run, fresh or loaded, is checked against the workload's
      declared ``expected`` results.

    Observability (:mod:`repro.obs`) is orthogonal: cached runs carry
    no observation (obs artifacts are derived data and never stored);
    a fresh execution with obs enabled attaches one to a PSI run,
    merges its metrics into the process-global registry, and bumps the
    spec-labelled counter ``psi.run.spec.<name>``.
    """
    spec = get_spec(spec)
    machine, record_trace = _machine(spec, record_trace)
    memo = _memo(spec)
    cached = memo.get(name)
    if cached is not None and (not record_trace or cached.trace is not None):
        _event("memory_hit", spec)
        return cached
    # A trace-free run of this key is already held; executing again is
    # double work, made visible in execute().
    untraced = cached is not None
    workload = get(name)

    def execute():
        if untraced:
            _event("trace_upgrade", spec)
            logger.warning(
                "run_spec(%r, %r): cached run has no trace; re-running to "
                "record one (keep the disk cache enabled and the spec's "
                "record_trace on to avoid the double execution)",
                name, spec.name)
        run = machine(workload, spec, record_trace)
        _check_expected(workload, spec, run)
        if obs.enabled():
            obs.global_metrics().counter(f"psi.run.spec.{spec.name}").inc()
        return run

    if not _DISK_CACHE_ENABLED:
        memo[name] = run = execute()
        return run

    # Disk tier, behind the per-key file lock: when several processes
    # (serve workers, ``run_many`` workers, parallel CLI invocations)
    # miss the same key at once, exactly one computes inside the lock
    # and the rest load its stored entry ("wait_hit").
    computed = []

    def compute():
        run = execute()
        computed.append(run)
        return run.to_summary()

    def usable(summary) -> bool:
        nonlocal untraced
        if record_trace and summary.trace_bytes is None:
            untraced = True         # stored without a trace
            return False
        return True

    key = run_key(source=workload.source, goal=workload.goal,
                  setup_goals=workload.setup_goals,
                  all_solutions=_spec_all_solutions(workload, spec),
                  spec_fingerprint=spec.fingerprint)
    summary, outcome = RunCache().load_or_compute(
        key, compute, usable=usable, label=spec.name, trace=record_trace)
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
        _check_expected(workload, spec, run)
    memo[name] = run
    return run


def _collect_summary(name: str, record_trace: bool, disk_cache: bool,
                     obs_config, spec: RunSpec):
    """Worker-process entry point: run one workload, return its summary.

    ``obs_config`` is the parent's :class:`~repro.obs.ObsConfig` when
    observability is enabled there, and ``spec`` the parent's resolved
    :class:`RunSpec` (shipped as a value).  With obs on, the worker also
    returns what this task added to its process-global metrics — the
    one obs artifact that crosses the process boundary.
    """
    set_disk_cache(disk_cache)
    if obs_config is not None:
        obs.global_metrics().clear()
        obs.enable(obs_config)
    run = run_spec(name, spec, record_trace=record_trace)
    metrics = obs.global_metrics().snapshot() if obs_config else None
    return name, run.to_summary(), metrics


def run_many(names, jobs: int | None = None, record_trace: bool = True,
             spec: RunSpec | str | None = None) -> dict:
    """Run several workloads under one spec, optionally across processes.

    Returns ``{name: run}`` in first-seen input order.  Cache tiers are
    consulted first; only workloads that actually need execution are
    fanned out over ``jobs`` processes, for either engine.  Results
    land in the spec's per-process memo, so subsequent :func:`run_spec`
    calls (the table generators) are free.

    Execution order never affects results — every workload runs on a
    fresh machine — so the parallel path renders byte-identical tables
    and figures to the serial one.  That extends to observability:
    workers ship their metrics back with their summaries and the parent
    merges them, so the process-global metrics equal a serial run's
    (merging is commutative; runs served from a cache tier contribute
    no metrics on either path).
    """
    spec = get_spec(spec)
    _, record_trace = _machine(spec, record_trace)
    ordered = list(dict.fromkeys(names))
    memo = _memo(spec)
    pending = []
    for name in ordered:
        cached = memo.get(name)
        if cached is not None and (not record_trace or cached.trace is not None):
            continue
        if _DISK_CACHE_ENABLED:
            workload = get(name)
            key = run_key(source=workload.source, goal=workload.goal,
                          setup_goals=workload.setup_goals,
                          all_solutions=_spec_all_solutions(workload, spec),
                          spec_fingerprint=spec.fingerprint)
            summary = RunCache().load(key, trace=record_trace)
            if summary is not None and (not record_trace
                                        or summary.trace_bytes is not None):
                _event("disk_hit", spec)
                run = summary.to_collected_run()
                _check_expected(workload, spec, run)
                memo[name] = run
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
                name, summary, metrics = future.result()
                if metrics:
                    obs.merge_snapshot(metrics)
                # Workers store their own disk entries; the parent only
                # needs the in-process tier.
                memo[name] = summary.to_collected_run()
    return {name: run_spec(name, spec, record_trace=record_trace)
            for name in ordered}


def _check_expected(workload: Workload, spec: RunSpec, run) -> None:
    """Raise if a workload's declared ``expected`` results don't hold."""
    problems = check_expected(workload.expected, answers=run.answers,
                              counters=run.counters)
    if problems:
        raise RuntimeError(
            f"workload {workload.name} produced wrong results on the "
            f"{spec.name} engine: " + "; ".join(problems))


def cache_stats(name: str, configs,
                spec: RunSpec | str | None = None) -> tuple:
    """``(run, stats)``: a run's cache statistics under each of ``configs``.

    The one replay decision behind every cache study.  A config equal
    to the run's stored :class:`~repro.memsys.CacheResult` geometry is
    answered from it (the same kernel, trace and totals produced it).
    The rest share one :func:`~repro.tools.pmms.simulate_many` call
    with the run's own access totals standing in for a counting pass;
    only then is the trace loaded.  ``run`` is the trace-free run whose
    stored result answered (its ``steps`` price the stats).
    """
    run = run_spec(name, spec, record_trace=False)
    stored = run.cache
    reuse = [stored is not None and config == stored.config
             for config in configs]
    todo = [config for config, hit in zip(configs, reuse) if not hit]
    fresh = iter(simulate_many(run_spec(name, spec).trace, todo,
                               totals=_totals_from_stats(run.stats))
                 if todo else ())
    return run, [stored.stats if hit else next(fresh) for hit in reuse]


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
