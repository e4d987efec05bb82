"""The warm worker pool behind the evaluation service.

Workers are OS processes on a ``ProcessPoolExecutor`` — the exact
hand-off path PR 1 built for ``psi-eval all --jobs N``: work functions
return picklable plain data (answers, counters, replayed cache-stats
dicts), and inside each worker :mod:`repro.eval.runner` provides the
three cache tiers.  That is what makes the pool *warm*:

* a worker's first request for a workload executes it (or loads the
  file-locked ``.psi-cache/`` entry another process already stored) and
  parks the :class:`~repro.tools.collect.CollectedRun` in the worker's
  in-memory tier;
* every later request for that workload in the same worker is a
  memory hit — answers and traces are served without re-interpretation,
  which is the steady state ``perfbench``'s ``serve-mix`` workload
  measures (its warm-up repeats until a whole pass is memory hits).

Work functions are module-level (picklable by reference) and return
only JSON-able data, so the asyncio server can forward results to the
wire without touching simulator objects.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.serve.protocol import cache_config_from_json, cache_stats_to_json


def _init_worker(cache_dir: str | None, disk_cache: bool) -> None:
    """Per-process setup: detach from the server's signal handling,
    point the run cache, mirror the cache flag.

    A forked worker inherits the server loop's signal wakeup fd and its
    SIGINT/SIGTERM handlers, so a signal sent to the worker would wake
    the *server's* loop and drain it — which is what the executor's
    ``terminate()`` of the surviving workers did whenever one worker
    died.  Workers leave shutdown to the server: they ignore SIGINT (a
    terminal Ctrl-C reaches the whole process group) and die on SIGTERM.
    """
    import signal

    from repro.eval import runner

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if cache_dir is not None:
        os.environ["PSI_CACHE_DIR"] = cache_dir
    runner.set_disk_cache(disk_cache)


def _cache_events_delta(before: Counter, after: Counter) -> dict[str, int]:
    delta = after - before
    return {name: count for name, count in sorted(delta.items()) if count}


def worker_solve(name: str, spec_name: str) -> dict:
    """Run one workload under one run spec; return the wire-ready result.

    ``spec_name`` is resolved through the worker's own spec registry
    (:mod:`repro.eval.specs`); the pool uses a ``fork`` context, so
    specs registered in the server process before the pool starts are
    visible here.
    """
    from repro.eval.runner import CACHE_EVENTS, run_spec
    from repro.eval.specs import get_spec

    spec = get_spec(spec_name)
    before = Counter(CACHE_EVENTS)
    run = run_spec(name, spec, record_trace=False)
    result = {
        "workload": name,
        "engine": spec.engine,
        "spec": spec.name,
        "succeeded": run.succeeded,
        "answers": [list(map(list, answer)) for answer in run.answers],
        "counters": dict(run.counters),
        "worker_pid": os.getpid(),
        "cache_events": _cache_events_delta(before, Counter(CACHE_EVENTS)),
    }
    if spec.engine == "psi":
        result.update(solutions=run.solutions,
                      steps=run.steps,
                      inferences=run.stats.inferences,
                      time_ms=run.time_ms,
                      lips=run.lips,
                      work_unit="microsteps")
        if run.cache is not None:
            result["cache_hit_ratio"] = run.cache.stats.hit_ratio
    else:
        result.update(solutions=len(run.answers),
                      inferences=run.stats.inferences,
                      time_ms=run.time_ms,
                      work=run.stats.total_instructions,
                      work_unit="instructions")
    return result


def worker_replay(name: str, spec_name: str, configs: list[dict]) -> dict:
    """Replay one workload's recorded trace through many cache configs.

    The trace comes from the ``spec_name`` run (any PSI spec — the
    server rejects baseline specs, which record no trace), through
    :func:`repro.eval.runner.cache_stats`: configs equal to the run's
    stored geometry are answered from its stored result, the rest
    share one ``simulate_many`` call — one kernel pass each, no matter
    how many client requests were coalesced into ``configs``.
    Statistics are bit-identical to a per-config ``simulate``
    (re-asserted end-to-end by ``tests/serve/test_server_e2e.py``).
    ``configs_simulated`` counts the kernel passes actually run and
    ``configs_reused`` the configs answered from the stored result.
    """
    from repro.eval.runner import cache_stats

    run, stats = cache_stats(
        name, [cache_config_from_json(config) for config in configs],
        spec_name)
    reused = sum(run.cache is not None and s is run.cache.stats
                 for s in stats)
    return {
        "workload": name,
        "spec": spec_name,
        # One trace entry per billed memory access.
        "trace_entries": sum(run.stats.mem_counts.values()),
        "stats": [cache_stats_to_json(s) for s in stats],
        "configs_simulated": len(stats) - reused,
        "configs_reused": reused,
        "worker_pid": os.getpid(),
    }


def worker_fidelity(tables: list[str] | None) -> dict:
    """Paper-drift score over ``tables`` (default: every scored table)."""
    from repro.obs import fidelity

    report = fidelity.collect(tables=tables or None)
    return report.to_dict(cell_limit=3)


def worker_warm(names: list[str], spec_name: str = "faithful") -> dict:
    """Pre-populate this worker's cache tiers for ``names``."""
    from repro.eval.runner import run_spec

    for name in names:
        run_spec(name, spec_name, record_trace=False)
    return {"warmed": len(names), "spec": spec_name,
            "worker_pid": os.getpid()}


class WorkerPool:
    """Asyncio-friendly facade over the process pool.

    Tracks submitted/completed/failed counts and the in-flight depth so
    the ``health`` endpoint can report queue pressure (anything beyond
    ``workers`` in flight is queued inside the executor).

    A worker that dies (crash, OOM kill, ``os._exit``) breaks the whole
    ``ProcessPoolExecutor``: its pending futures fail with
    ``BrokenProcessPool`` and it accepts no further work.  The pool then
    replaces the executor with a fresh one built from the same
    arguments, so only the requests in flight on the broken executor
    fail (a request refused at submission never ran, and is submitted
    to the fresh executor instead); ``respawns`` counts the
    replacements.
    """

    def __init__(self, workers: int, *, cache_dir: str | None = None,
                 disk_cache: bool = True):
        self.workers = max(1, int(workers))
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.inflight = 0
        self.respawns = 0
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:                      # pragma: no cover - non-POSIX
            context = None
        self._executor_args = dict(
            max_workers=self.workers, mp_context=context,
            initializer=_init_worker, initargs=(cache_dir, disk_cache))
        self._executor = ProcessPoolExecutor(**self._executor_args)

    async def run(self, fn, *args):
        """Run one work function on the pool; await its plain-data result."""
        loop = asyncio.get_running_loop()
        self.submitted += 1
        self.inflight += 1
        executor = self._executor
        try:
            try:
                future = loop.run_in_executor(executor, fn, *args)
            except BrokenProcessPool:
                # A worker died while no request was in flight: nothing
                # of this one ran, so it goes to a fresh executor.
                executor = self._respawn(executor)
                future = loop.run_in_executor(executor, fn, *args)
            result = await future
            self.completed += 1
            return result
        except Exception as exc:
            self.failed += 1
            if isinstance(exc, BrokenProcessPool):
                self._respawn(executor)
            raise
        finally:
            self.inflight -= 1

    def _respawn(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace ``broken`` with a fresh executor (once per breakage,
        however many requests it failed); return the current one."""
        if broken is self._executor:
            self._executor = ProcessPoolExecutor(**self._executor_args)
            self.respawns += 1
            broken.shutdown(wait=False, cancel_futures=True)
        return self._executor

    def health(self) -> dict:
        return {
            "workers": self.workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": self.inflight,
            "queued": max(0, self.inflight - self.workers),
            "respawns": self.respawns,
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
