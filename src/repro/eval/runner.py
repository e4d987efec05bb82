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
counts hits and misses so callers (and tests) can observe what the
tiers actually did — each event is counted both bare (``disk_hit``) and
per spec (``disk_hit:indexed``).

Observability is not a mode of this module: a run executed inside
:func:`repro.obs.observed` carries its own observation, and ``psi-eval
profile`` observes one fresh run per workload.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

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

#: Observable cache behaviour: "memory_hit", "disk_hit", "disk_miss";
#: every "disk_miss" is also classified as "disk_compute" (this process
#: executed the workload inside the key lock) or "disk_wait_hit"
#: (another process stored the entry while this one held or waited for
#: the lock).  A trace-free memo entry whose caller needs the trace is
#: served from the disk entry's trace section as a plain "disk_hit".
#: Each event increments both its bare key and a ``<event>:<spec>``
#: key, so per-spec behaviour is observable.  Reset by
#: :func:`clear_cache`.
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


def _run_psi(workload: Workload, spec: RunSpec) -> CollectedRun:
    # Always record the trace: the deferred cache replay needs it
    # anyway, and the stored run then serves every later
    # ``record_trace=True`` caller.  Configs are copied so a live
    # machine never aliases (and corrupts) the registry's mutable
    # config instances.
    run = collect(workload.source, workload.goal,
                  all_solutions=workload.all_solutions,
                  with_cache=spec.with_cache,
                  cache_config=dataclasses.replace(spec.cache_config),
                  machine_config=dataclasses.replace(spec.machine_config),
                  setup_goals=workload.setup_goals)
    if not run.succeeded:
        raise RuntimeError(f"workload {workload.name} failed on the PSI "
                           f"model (spec {spec.name!r})")
    return run


def _run_wam(workload: Workload, spec: RunSpec) -> BaselineRun:
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
    solutions = solver.all() if workload.all_solutions else solver.all(1)
    if not solutions:
        raise RuntimeError(f"workload {workload.name} failed on the baseline")
    return BaselineRun(stats=machine.stats,
                       answers=tuple(canonical_answer(s.bindings)
                                     for s in solutions),
                       counters=dict(machine.counters))


def _wants_trace(spec: RunSpec, record_trace: bool) -> bool:
    """Does this caller need the run's trace?  The WAM records none, so
    a baseline run serves every caller."""
    return record_trace and spec.engine != "baseline"


def _key(workload: Workload, spec: RunSpec) -> str:
    return run_key(source=workload.source, goal=workload.goal,
                   setup_goals=workload.setup_goals,
                   all_solutions=workload.all_solutions,
                   spec_fingerprint=spec.fingerprint)


def _cached(name: str, spec: RunSpec, record_trace: bool):
    """The run a cache tier holds for ``name``, or ``None``.

    The memo first; then, with the disk tier on, the stored entry (its
    trace section read only when ``record_trace`` is true), checked
    against the workload's ``expected`` results and memoised.
    """
    memo = _memo(spec)
    run = memo.get(name)
    if run is not None and (not record_trace or run.trace is not None):
        _event("memory_hit", spec)
        return run
    if not _DISK_CACHE_ENABLED:
        return None
    workload = get(name)
    summary = RunCache().load(_key(workload, spec), trace=record_trace)
    if summary is None:
        return None
    _event("disk_hit", spec)
    memo[name] = run = _checked(workload, spec, summary.to_collected_run())
    return run


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
    * Every PSI execution records the trace, so every stored PSI entry
      carries a trace section.
    * Disk loads read the entry's trace section only when
      ``record_trace`` is true; ``record_trace=False`` callers get a
      trace-free run and never touch the trace bytes.  A later
      ``record_trace=True`` call for the same run loads the trace
      section from disk (a ``disk_hit``); with the disk tier off it
      executes the workload again.
    * Every run, fresh or loaded, is checked against the workload's
      declared ``expected`` results.

    A fresh PSI execution inside :func:`repro.obs.observed` carries an
    observation; a run served from a cache tier carries none.
    """
    spec = get_spec(spec)
    record_trace = _wants_trace(spec, record_trace)
    run = _cached(name, spec, record_trace)
    return run if run is not None else _execute(name, spec, record_trace)


def _execute(name: str, spec: RunSpec, record_trace: bool):
    """Execute a run no cache tier holds, storing and memoising it."""
    workload = get(name)
    execute = _run_wam if spec.engine == "baseline" else _run_psi

    def compute():
        return _checked(workload, spec, execute(workload, spec))

    if not _DISK_CACHE_ENABLED:
        run = compute()
    else:
        # Behind the per-key file lock: when several processes (serve
        # workers, ``run_many`` workers, parallel CLI invocations) miss
        # the same key at once, exactly one computes and the rest load
        # its stored entry ("wait_hit").
        computed = []

        def store():
            computed.append(compute())
            return computed[0].to_summary()

        summary, _ = RunCache().load_or_compute(
            _key(workload, spec), store, label=spec.name,
            trace=record_trace)
        _event("disk_miss", spec)
        _event("disk_compute" if computed else "disk_wait_hit", spec)
        # The live run keeps the machine handle.
        run = (computed[0] if computed
               else _checked(workload, spec, summary.to_collected_run()))
    _memo(spec)[name] = run
    return run


def _collect_summary(name: str, record_trace: bool, disk_cache: bool,
                     spec: RunSpec):
    """Worker-process entry point: run one workload, return its summary.

    ``spec`` is the parent's resolved :class:`RunSpec`, shipped as a
    value.
    """
    set_disk_cache(disk_cache)
    return run_spec(name, spec, record_trace=record_trace).to_summary()


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
    and figures to the serial one.
    """
    spec = get_spec(spec)
    record_trace = _wants_trace(spec, record_trace)
    runs = {name: _cached(name, spec, record_trace)
            for name in dict.fromkeys(names)}
    pending = [name for name, run in runs.items() if run is None]
    if jobs and jobs > 1 and len(pending) > 1:
        logger.info("run_many: executing %d workload(s) on %d processes "
                    "(spec %s)", len(pending), jobs, spec.name)
        memo = _memo(spec)
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {name: pool.submit(_collect_summary, name,
                                         record_trace, _DISK_CACHE_ENABLED,
                                         spec)
                       for name in pending}
            for name, future in futures.items():
                # Workers store their own disk entries; the parent only
                # needs the in-process tier.
                memo[name] = runs[name] = future.result().to_collected_run()
    else:
        for name in pending:
            runs[name] = _execute(name, spec, record_trace)
    return runs


def _checked(workload: Workload, spec: RunSpec, run):
    """``run``, after raising if the workload's declared ``expected``
    results don't hold."""
    problems = check_expected(workload.expected, answers=run.answers,
                              counters=run.counters)
    if problems:
        raise RuntimeError(
            f"workload {workload.name} produced wrong results on the "
            f"{spec.name} engine: " + "; ".join(problems))
    return run


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
