"""The asyncio evaluation server (``psi-eval serve``).

One event loop owns all connections and bookkeeping; every unit of real
work — solving, replaying, fidelity scoring — runs on the
:class:`~repro.serve.pool.WorkerPool` so the loop never blocks on the
interpreter.  Requests on one connection run concurrently (responses
are matched by ``id``, see :mod:`repro.serve.protocol`), replay
requests flow through the :class:`~repro.serve.batcher.ReplayBatcher`,
and everything is measured into a server-local
:class:`~repro.obs.metrics.MetricsRegistry` (wall-clock latencies —
serving metrics are operational, unlike the deterministic run metrics,
and are never merged into a run registry).

Graceful drain: the ``drain`` op stops admission of new work, waits for
every in-flight request to finish, answers the drainer with a summary,
and then shuts the server down.  ``health``/``metrics``/``ping`` stay
answerable while draining so operators can watch the queue empty.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time

from repro.obs.metrics import LATENCY_MS_BUCKETS, MetricsRegistry
from repro.serve import pool as pool_mod
from repro.serve.batcher import ReplayBatcher
from repro.serve.protocol import (
    MAX_REPLAY_CONFIGS,
    ProtocolError,
    canonical_config_key,
    read_message,
    write_message,
)

logger = logging.getLogger(__name__)

#: Ops that keep working while the server drains (read-only
#: introspection; they never enter the worker pool).
_DRAIN_SAFE_OPS = frozenset({"ping", "health", "metrics", "drain",
                             "shutdown"})


class EvalServer:
    """The evaluation service: worker pool + batcher + asyncio frontend."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, *, cache_dir: str | None = None,
                 disk_cache: bool = True):
        self.host = host
        self._requested_port = port
        self.metrics = MetricsRegistry()
        self.pool = pool_mod.WorkerPool(workers, cache_dir=cache_dir,
                                        disk_cache=disk_cache)
        self.batcher = ReplayBatcher(self.pool, metrics=self.metrics)
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_handlers: set[asyncio.Task] = set()
        self._connections = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)
        self._started_at = time.monotonic()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_drained(self) -> None:
        """Serve until a ``drain`` op (or :meth:`request_drain`) completes."""
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.start_serving()
            await self._drained.wait()
            # Unblock connection handlers parked in read_message so they
            # run their close path before loop teardown would hard-cancel
            # them (which asyncio.streams logs as an error).
            for task in list(self._conn_handlers):
                task.cancel()
            if self._conn_handlers:
                await asyncio.gather(*list(self._conn_handlers),
                                     return_exceptions=True)
        self.pool.shutdown()

    def request_drain(self) -> None:
        """Out-of-band drain trigger (signal handlers, tests)."""
        self._draining = True
        self._drained.set()

    def summary(self) -> str:
        served = self._counter_value("serve.requests.total")
        errors = self._counter_value("serve.requests.errors")
        latency = self.metrics.get("serve.latency_ms")
        uptime = time.monotonic() - self._started_at
        parts = [f"drained after {served} request(s) "
                 f"({errors} error(s)) over {uptime:.1f}s"]
        if latency is not None and latency.count:
            parts.append(f"latency p50 {latency.percentile(50):.1f} ms, "
                         f"p99 {latency.percentile(99):.1f} ms")
        return "; ".join(parts)

    def _counter_value(self, name: str) -> int:
        metric = self.metrics.get(name)
        return metric.value if metric is not None else 0

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        self._conn_handlers.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        connection_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    logger.warning("serve: dropping connection: %s", exc)
                    break
                except asyncio.CancelledError:
                    break               # drain: close this connection
                if message is None:
                    break
                task = asyncio.create_task(
                    self._handle_request(message, writer, write_lock))
                for registry in (self._tasks, connection_tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
        finally:
            if connection_tasks:
                await asyncio.gather(*connection_tasks,
                                     return_exceptions=True)
            self._connections -= 1
            self._conn_handlers.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_request(self, message: dict,
                              writer: asyncio.StreamWriter,
                              write_lock: asyncio.Lock) -> None:
        start = time.perf_counter()
        op = message.get("op")
        self.metrics.counter("serve.requests.total").inc()
        try:
            if not isinstance(op, str):
                raise ProtocolError("request needs a string 'op' field")
            if self._draining and op not in _DRAIN_SAFE_OPS:
                raise RuntimeError("server is draining; request rejected")
            handler = self._OPS.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r} (valid: "
                    f"{', '.join(sorted(self._OPS))})")
            self.metrics.counter(f"serve.op.{op}").inc()
            result = await handler(self, message)
            response = {"id": message.get("id"), "ok": True, "result": result}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.metrics.counter("serve.requests.errors").inc()
            response = {"id": message.get("id"), "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"}
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.histogram("serve.latency_ms",
                               boundaries=LATENCY_MS_BUCKETS) \
            .observe(latency_ms)
        try:
            async with write_lock:
                await write_message(writer, response)
        except (ConnectionError, OSError):
            logger.warning("serve: client went away before the %r response",
                           op)
            return
        if op in ("drain", "shutdown") and response["ok"]:
            # Set only after the drainer has its response bytes, so the
            # summary always reaches it before the listener closes.
            self._drained.set()

    # -- ops -----------------------------------------------------------------

    async def _op_ping(self, message: dict) -> dict:
        return {"pong": True}

    async def _op_workloads(self, message: dict) -> dict:
        from repro.workloads import all_workloads

        return {"workloads": [
            {"name": w.name, "paper_id": w.paper_id, "title": w.title,
             "psi_only": w.psi_only}
            for w in all_workloads().values()]}

    def _validated_workload(self, message: dict):
        from repro.workloads import all_workloads

        name = message.get("workload")
        known = all_workloads()
        if name not in known:
            raise ProtocolError(
                f"unknown workload {name!r} (see the 'workloads' op)")
        return known[name]

    def _resolved_spec(self, message: dict):
        """The request's run spec: the ``spec`` field, default
        ``faithful``.  Unknown names are protocol errors, and so is an
        ``engine`` field — silently running it as ``faithful`` would
        answer a different question than the client asked."""
        from repro.eval.specs import get_spec, spec_names

        if "engine" in message:
            raise ProtocolError(
                "unknown request field 'engine'; name the run spec with "
                f"the 'spec' field (valid: {', '.join(spec_names())})")
        name = message.get("spec", "faithful")
        if not isinstance(name, str):
            raise ProtocolError("'spec' must be a run-spec name")
        try:
            return get_spec(name)
        except ValueError:
            raise ProtocolError(
                f"unknown run spec {name!r} (valid: "
                f"{', '.join(spec_names())})") from None

    async def _op_solve(self, message: dict) -> dict:
        workload = self._validated_workload(message)
        spec = self._resolved_spec(message)
        if spec.engine != "psi" and workload.psi_only:
            raise ProtocolError(f"workload {workload.name!r} uses KL0-only "
                                "builtins; only PSI run specs can run it")
        self.metrics.counter(f"serve.solve.spec.{spec.name}").inc()
        return await self.pool.run(pool_mod.worker_solve, workload.name,
                                   spec.name)

    async def _op_replay(self, message: dict) -> dict:
        workload = self._validated_workload(message)
        spec = self._resolved_spec(message)
        if spec.engine != "psi":
            raise ProtocolError(f"run spec {spec.name!r} records no PMMS "
                                "trace; replay needs a PSI spec")
        configs = message.get("configs", [{}])
        if not isinstance(configs, list) or not configs:
            raise ProtocolError("'configs' must be a non-empty list of "
                                "cache-config objects (use [{}] for the "
                                "production configuration)")
        if len(configs) > MAX_REPLAY_CONFIGS:
            raise ProtocolError(f"{len(configs)} replay configs exceed the "
                                f"{MAX_REPLAY_CONFIGS}-config limit")
        for config in configs:
            if not isinstance(config, dict):
                raise ProtocolError("each replay config must be an object")
            try:
                canonical_config_key(config)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid cache config {config!r}: "
                                    f"{exc}") from None
        return await self.batcher.submit(workload.name, configs,
                                         spec=spec.name)

    async def _op_warm(self, message: dict) -> dict:
        from repro.workloads import shared_workloads

        spec = self._resolved_spec(message)
        names = message.get("workloads")
        if names is None:
            names = [w.name for w in shared_workloads()]
        else:
            for name in names:
                self._validated_workload({"workload": name})
        return await self.pool.run(pool_mod.worker_warm, list(names),
                                   spec.name)

    async def _op_fidelity(self, message: dict) -> dict:
        return await self.pool.run(pool_mod.worker_fidelity,
                                   message.get("tables"))

    async def _op_metrics(self, message: dict) -> dict:
        from repro import obs

        latency = self.metrics.get("serve.latency_ms")
        wait = self.metrics.get("serve.replay.wait_ms")
        return {
            "server": self.metrics.snapshot(),
            "latency_ms": (latency.quantiles() if latency is not None
                           else {}),
            "replay_wait_ms": wait.quantiles() if wait is not None else {},
            "pool": self.pool.health(),
            "process_obs": obs.global_metrics().snapshot(),
        }

    async def _op_health(self, message: dict) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "connections": self._connections,
            "requests_total": self._counter_value("serve.requests.total"),
            "errors_total": self._counter_value("serve.requests.errors"),
            "inflight": len(self._tasks),
            "replay_pending": self.batcher.pending(),
            "pool": self.pool.health(),
            "pid": os.getpid(),
        }

    async def _op_drain(self, message: dict) -> dict:
        """Stop admission, finish in-flight work, report, shut down."""
        self._draining = True
        current = asyncio.current_task()
        while True:
            others = [t for t in self._tasks if t is not current]
            if not others:
                break
            await asyncio.gather(*others, return_exceptions=True)
        return {"drained": True, "summary": self.summary()}

    _OPS = {
        "ping": _op_ping,
        "workloads": _op_workloads,
        "solve": _op_solve,
        "replay": _op_replay,
        "warm": _op_warm,
        "fidelity": _op_fidelity,
        "metrics": _op_metrics,
        "health": _op_health,
        "drain": _op_drain,
        "shutdown": _op_drain,
    }


async def run_server(host: str = "127.0.0.1", port: int = 0,
                     workers: int = 2, *, disk_cache: bool = True) -> str:
    """CLI entry: start, announce readiness on stdout, serve, drain.

    The ready line's format — ``psi-eval serve: listening on HOST:PORT``
    — is part of the tooling contract: ``perfbench``'s ``serve-mix`` and
    the end-to-end tests parse it to discover an ephemeral port.
    """
    server = EvalServer(host, port, workers, disk_cache=disk_cache)
    await server.start()
    print(f"psi-eval serve: listening on {server.host}:{server.port} "
          f"({server.pool.workers} worker(s), pid {os.getpid()})",
          flush=True)
    loop = asyncio.get_running_loop()
    try:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_drain)
    except (ImportError, NotImplementedError):    # pragma: no cover
        pass
    await server.serve_until_drained()
    return f"psi-eval serve: {server.summary()}"
