"""The warm worker pool behind the evaluation service.

Workers are forked OS processes, each owning one duplex pipe to the
server.  A worker's loop is ``recv (fn, args)`` → run → ``send (ok,
value, compute_ms)``; the server's event loop sends a request straight
down an idle worker's pipe and reads the reply when the pipe turns
readable, so no thread sits between a request and its worker.  Work
functions return picklable plain data (answers, counters, replayed
cache-stats dicts), and inside each worker :mod:`repro.eval.runner`
provides the three cache tiers.  That is what makes the pool *warm*:

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
import stat
import time
from collections import Counter, deque

from repro.obs.metrics import LATENCY_MS_BUCKETS, MetricsRegistry
from repro.serve.protocol import cache_config_from_json, cache_stats_to_json


class WorkerCrashed(RuntimeError):
    """The worker running a request died before it replied."""

    def __init__(self, pid: int, exitcode: int | None):
        super().__init__(f"worker {pid} died with exit code {exitcode} "
                         "before replying")
        self.pid = pid
        self.exitcode = exitcode


class UnpicklableResult(RuntimeError):
    """A work function's result or exception could not cross the pipe."""


def _init_worker(cache_dir: str | None, disk_cache: bool) -> None:
    """Per-process setup: detach from the server's signal handling,
    point the run cache, mirror the cache flag.

    A forked worker inherits the server loop's signal wakeup fd and its
    SIGINT/SIGTERM handlers, so a signal sent to the worker (such as
    the SIGTERM of :meth:`WorkerPool.shutdown`'s ``terminate()``) would
    wake the *server's* loop and drain it.  Workers leave shutdown to
    the server: they ignore SIGINT (a terminal Ctrl-C reaches the whole
    process group) and die on SIGTERM.
    """
    import signal

    from repro.eval import runner

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if cache_dir is not None:
        os.environ["PSI_CACHE_DIR"] = cache_dir
    runner.set_disk_cache(disk_cache)


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket fd the fork copied from the server, except
    ``keep``, at ``/dev/null``.

    Those are the server-side ends of every worker's pipe (this
    worker's own included), the listening socket and the client
    connections open at the fork.  While a worker holds a copy, the
    server's close of one does not reach its peer: a dead server (even
    a SIGKILLed one) would not read as EOF here, so the worker would
    linger, and a connection the server drops would stay open.  The
    fd numbers stay taken, so the inherited objects that own them can
    never close a file this worker opens later.  Standard streams are
    left alone.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:                     # the listing's own fd
                pass
    finally:
        os.close(null)


def _worker_main(conn, cache_dir: str | None, disk_cache: bool) -> None:
    """A worker's life: serve requests from ``conn`` until it reads EOF."""
    _drop_inherited_sockets(keep=conn.fileno())
    _init_worker(cache_dir, disk_cache)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        start = time.perf_counter()
        try:
            ok, value = True, fn(*args)
        except Exception as exc:
            ok, value = False, exc
        compute_ms = (time.perf_counter() - start) * 1000.0
        try:
            conn.send((ok, value, compute_ms))
        except OSError:
            return                              # the server is gone
        except Exception as exc:                # pickling failed; nothing sent
            what = "result" if ok else f"{type(value).__name__} exception"
            conn.send((False, UnpicklableResult(
                f"{getattr(fn, '__qualname__', fn)}'s {what} cannot be "
                f"pickled: {type(exc).__name__}: {exc}"), compute_ms))


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


class _Worker:
    """One worker process, the server's end of its pipe, and the reply
    future of its in-flight request (``None`` while idle)."""

    __slots__ = ("process", "conn", "reply")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.reply: asyncio.Future | None = None


class WorkerPool:
    """``workers`` forked worker processes, driven from one event loop.

    :meth:`run` sends each request down an idle worker's pipe, taking
    idle workers first-in first-out so every worker warms up; when none
    is idle the request waits in a FIFO on the loop.  Every worker's
    pipe is watched through ``loop.add_reader`` for the life of the
    pool, so a reply resolves its request without a thread hand-off
    and a worker that dies — busy or idle — shows as EOF on its own
    pipe.  Only that worker's in-flight request fails (with
    :class:`WorkerCrashed`), and only its slot is refilled with a
    fresh fork, so the surviving workers keep their warm memo;
    ``respawns`` counts the refills.  The dead worker is reaped and its
    request failed before the refill forks, and a refill whose fork
    fails leaves the slot free for the next :meth:`run` to retry; with
    no worker left, the waiting requests fail with the fork's error.
    A request that finds its worker already dead when it sends never
    reached it, and goes to the next idle worker instead.

    Submitted/completed/failed counts and the in-flight depth feed the
    ``health`` endpoint.  Each request sent to a worker adds its wait
    for an idle one to the ``serve.pool.wait_ms`` histogram of
    ``metrics``, and each reply received adds the worker's own compute
    time to ``serve.pool.compute_ms``.
    """

    def __init__(self, workers: int, *, cache_dir: str | None = None,
                 disk_cache: bool = True,
                 metrics: MetricsRegistry | None = None):
        self.workers = max(1, int(workers))
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.inflight = 0
        self.respawns = 0
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._wait_ms = metrics.histogram("serve.pool.wait_ms",
                                          boundaries=LATENCY_MS_BUCKETS)
        self._compute_ms = metrics.histogram("serve.pool.compute_ms",
                                             boundaries=LATENCY_MS_BUCKETS)
        self._context = multiprocessing.get_context("fork")
        self._initargs = (cache_dir, disk_cache)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._slots: list[_Worker] = []
        self._idle: deque[_Worker] = deque()
        self._waiting: deque[asyncio.Future] = deque()
        self._shut = False
        for _ in range(self.workers):
            worker = self._spawn()
            self._slots.append(worker)
            self._idle.append(worker)

    def _spawn(self) -> _Worker:
        ours, theirs = self._context.Pipe(duplex=True)
        # Daemonic, so that a server that exits without shutdown() has
        # its workers terminated rather than joined forever.
        process = self._context.Process(
            target=_worker_main, args=(theirs, *self._initargs),
            daemon=True)
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        worker = _Worker(process, ours)
        if self._loop is not None:
            self._loop.add_reader(ours.fileno(), self._on_readable, worker)
        return worker

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Watch every worker's pipe from ``loop`` (the first ``run``'s)."""
        if loop is self._loop:
            return
        self._loop = loop
        for worker in self._slots:
            loop.add_reader(worker.conn.fileno(), self._on_readable, worker)

    async def run(self, fn, *args):
        """Run one work function on the pool; await its plain-data result."""
        loop = asyncio.get_running_loop()
        self._watch(loop)
        self.submitted += 1
        self.inflight += 1
        try:
            result = await self._call(loop, fn, args)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.inflight -= 1
        self.completed += 1
        return result

    async def _call(self, loop, fn, args):
        queued = time.perf_counter()
        while True:
            worker = await self._acquire(loop)
            try:
                worker.conn.send((fn, args))
            except OSError:
                # Died while idle, before its EOF was read: the request
                # never reached it.
                self._replace(worker)
                self._refill()
                continue
            except Exception:                   # unpicklable; nothing sent
                self._release(worker)
                raise
            break
        self._wait_ms.observe((time.perf_counter() - queued) * 1000.0)
        worker.reply = loop.create_future()
        return await worker.reply

    async def _acquire(self, loop) -> _Worker:
        if self._shut:
            raise RuntimeError("the worker pool is shut down")
        if len(self._slots) < self.workers:
            error = self._refill()              # retry a failed fork
            if not self._slots:
                raise error
        if self._idle:
            return self._idle.popleft()
        waiter = loop.create_future()
        self._waiting.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self._release(waiter.result())
            raise

    def _release(self, worker: _Worker) -> None:
        """Hand an idle ``worker`` to the oldest waiting request."""
        while self._waiting:
            waiter = self._waiting.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    def _on_readable(self, worker: _Worker) -> None:
        reply, worker.reply = worker.reply, None
        if reply is None:
            # An idle worker's pipe only turns readable at EOF.
            self._replace(worker)
            self._refill()
            return
        try:
            ok, value, compute_ms = worker.conn.recv()
        except (EOFError, OSError):
            pid = worker.process.pid
            exitcode = self._replace(worker)
            if not reply.done():
                reply.set_exception(WorkerCrashed(pid, exitcode))
            self._refill()
            return
        except Exception as exc:                # the reply did not unpickle
            ok, value, compute_ms = False, UnpicklableResult(
                f"worker reply cannot be unpickled: "
                f"{type(exc).__name__}: {exc}"), None
        if compute_ms is not None:
            self._compute_ms.observe(compute_ms)
        self._release(worker)
        if reply.done():                        # its request was cancelled
            return
        if ok:
            reply.set_result(value)
        else:
            reply.set_exception(value)

    def _replace(self, dead: _Worker) -> int | None:
        """Reap ``dead`` and free its slot; return its exit code."""
        if dead not in self._slots:             # already reaped
            return None
        self._close(dead)
        exitcode = _reap(dead.process, timeout=1.0)
        self._slots.remove(dead)
        if dead in self._idle:
            self._idle.remove(dead)
        return exitcode

    def _refill(self) -> OSError | None:
        """Fork a fresh worker into every free slot and hand it out.

        A fork can fail (ENOMEM, EAGAIN), most likely just after an
        OOM kill.  Its slot then stays free for the next :meth:`run` to
        retry, and the error is returned.  If no worker is left at all,
        the requests waiting for one fail with it instead of waiting
        forever.
        """
        while len(self._slots) < self.workers:
            try:
                fresh = self._spawn()
            except OSError as exc:
                if not self._slots:
                    while self._waiting:
                        waiter = self._waiting.popleft()
                        if not waiter.done():
                            waiter.set_exception(exc)
                return exc
            self._slots.append(fresh)
            self.respawns += 1
            self._release(fresh)
        return None

    def _close(self, worker: _Worker) -> None:
        """Stop watching ``worker``'s pipe and close the server's end:
        a live worker reads EOF and exits."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()

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
        """Close every pipe, then reap every worker (bounded wait each)."""
        self._shut = True
        for worker in self._slots:
            self._close(worker)
        for worker in self._slots:
            _reap(worker.process, timeout=5.0)
        self._slots.clear()
        self._idle.clear()


def _reap(process, timeout: float) -> int | None:
    """Join ``process``, terminating (then killing) it if it has not
    exited within ``timeout`` seconds; return its exit code."""
    process.join(timeout)
    if process.exitcode is None:
        process.terminate()
        process.join(timeout)
    if process.exitcode is None:
        process.kill()
        process.join()
    exitcode = process.exitcode
    process.close()
    return exitcode
