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

from repro.serve.protocol import cache_config_from_json, cache_stats_to_json


def _init_worker(cache_dir: str | None, disk_cache: bool) -> None:
    """Per-process setup: point the run cache, mirror the cache flag."""
    from repro.eval import runner

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
    server rejects baseline specs, which record no trace).  One
    ``simulate_many`` pass serves the whole batch — the trace is
    decoded once no matter how many client requests were coalesced into
    ``configs``.  Statistics are bit-identical to a per-config
    ``simulate`` (the PR-1 equivalence contract, re-asserted end-to-end
    by ``tests/serve/test_server_e2e.py``).
    """
    from repro.eval.runner import run_spec
    from repro.tools.pmms import simulate_many

    run = run_spec(name, spec_name, record_trace=True)
    stats = simulate_many(run.trace, [cache_config_from_json(c)
                                      for c in configs])
    return {
        "workload": name,
        "spec": spec_name,
        "trace_entries": len(run.trace),
        "stats": [cache_stats_to_json(s) for s in stats],
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
    """

    def __init__(self, workers: int, *, cache_dir: str | None = None,
                 disk_cache: bool = True):
        self.workers = max(1, int(workers))
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.inflight = 0
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:                      # pragma: no cover - non-POSIX
            context = None
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context,
            initializer=_init_worker, initargs=(cache_dir, disk_cache))

    async def run(self, fn, *args):
        """Run one work function on the pool; await its plain-data result."""
        loop = asyncio.get_running_loop()
        self.submitted += 1
        self.inflight += 1
        try:
            result = await loop.run_in_executor(self._executor, fn, *args)
            self.completed += 1
            return result
        except Exception:
            self.failed += 1
            raise
        finally:
            self.inflight -= 1

    def health(self) -> dict:
        return {
            "workers": self.workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": self.inflight,
            "queued": max(0, self.inflight - self.workers),
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
