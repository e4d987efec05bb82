"""Coalescing of compatible cache-replay requests.

Replay is the service's cheapest op per unit of asked-for work — one
``simulate_many`` call runs any number of cache configurations over a
workload's packed trace, one kernel pass each, with the run's own
access totals.  The batcher turns that property into a serving win
without ever holding a request back: it is *work-conserving*.

* A replay batch goes to the pool at once while fewer than
  ``pool.workers`` replay batches are in flight, so a lone request
  never waits for company.
* A request that arrives while every slot is busy *parks*: it joins the
  parked batch of its (workload, run spec) — the compatibility
  criterion, since one workload under one spec yields one trace — or
  opens one.  The batch's configurations are the union of its
  requests', deduplicated by canonical config identity, and a union
  never grows past ``max_configs``: a request that would push it over
  opens a fresh batch instead.
* When an in-flight replay batch completes, the oldest parked batch is
  dispatched.

Coalescing therefore happens exactly when there is queueing.  Each
request is answered with exactly its own configurations' statistics,
in its own requested order, so batching is invisible to clients except
for the ``batch_size`` field in the result.  All bookkeeping runs on
the event loop — the only ``await`` is the pool call — so no locks are
needed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.obs.metrics import LATENCY_MS_BUCKETS
from repro.serve import pool as pool_mod
from repro.serve.protocol import MAX_REPLAY_CONFIGS, canonical_config_key


@dataclass
class _Batch:
    """One (workload, spec)'s replay requests bound for one pool call."""

    workload: str
    spec: str
    #: canonical config key -> JSON dict, in first-seen order.
    union: dict[tuple, dict] = field(default_factory=dict)
    #: one (requested keys, future, submit time) per client request.
    waiters: list[tuple[list[tuple], asyncio.Future, float]] = \
        field(default_factory=list)

    def add(self, keys: list[tuple], configs: list[dict],
            future: asyncio.Future) -> None:
        for key, config in zip(keys, configs):
            self.union.setdefault(key, config)
        self.waiters.append((keys, future, time.perf_counter()))


class ReplayBatcher:
    """Merge same-workload replay requests that queue for the pool."""

    def __init__(self, pool: "pool_mod.WorkerPool", *,
                 max_configs: int = MAX_REPLAY_CONFIGS, metrics=None):
        self.pool = pool
        self.max_configs = max_configs
        self.metrics = metrics
        self._inflight = 0
        #: parked batches, oldest first.
        self._parked: list[_Batch] = []
        #: the parked batch each (workload, spec) still adds requests to.
        self._open: dict[tuple[str, str], _Batch] = {}
        self._tasks: set[asyncio.Task] = set()

    async def submit(self, workload: str, configs: list[dict],
                     spec: str = "faithful") -> dict:
        """Queue one replay request; await its (possibly batched) result.

        ``configs`` must already be validated (the server normalizes
        them through :func:`canonical_config_key` before calling), and
        ``spec`` must already name a PSI run spec, so the only failures
        surfacing here are worker-side ones, which propagate to every
        waiter of the batch.
        """
        keys = [canonical_config_key(config) for config in configs]
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if self._inflight < self.pool.workers:
            batch = _Batch(workload, spec)
            batch.add(keys, configs, future)
            self._dispatch(batch)
        else:
            batch = self._open.get((workload, spec))
            if (batch is None
                    or len(batch.union.keys() | set(keys)) > self.max_configs):
                batch = _Batch(workload, spec)
                self._open[(workload, spec)] = batch
                self._parked.append(batch)
            batch.add(keys, configs, future)
        return await future

    def _dispatch(self, batch: _Batch) -> None:
        self._inflight += 1
        if self.metrics is not None:
            now = time.perf_counter()
            wait = self.metrics.histogram("serve.replay.wait_ms",
                                          boundaries=LATENCY_MS_BUCKETS)
            for _, _, submitted in batch.waiters:
                wait.observe((now - submitted) * 1000.0)
        task = asyncio.create_task(self._run_batch(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, batch: _Batch) -> None:
        try:
            await self._replay(batch)
        finally:
            self._inflight -= 1
            if self._parked and self._inflight < self.pool.workers:
                oldest = self._parked.pop(0)
                key = (oldest.workload, oldest.spec)
                if self._open.get(key) is oldest:
                    del self._open[key]
                self._dispatch(oldest)

    async def _replay(self, batch: _Batch) -> None:
        if self.metrics is not None:
            self.metrics.counter("serve.replay.batches").inc()
            self.metrics.counter("serve.replay.requests").inc(
                len(batch.waiters))
            self.metrics.counter(f"serve.replay.spec.{batch.spec}").inc(
                len(batch.waiters))
            self.metrics.counter("serve.replay.configs_requested").inc(
                sum(len(keys) for keys, _, _ in batch.waiters))
        try:
            result = await self.pool.run(pool_mod.worker_replay,
                                         batch.workload, batch.spec,
                                         list(batch.union.values()))
        except Exception as exc:
            for _, future, _ in batch.waiters:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"replay of {batch.workload} failed: "
                                     f"{exc}"))
            return
        if self.metrics is not None:
            self.metrics.counter("serve.replay.configs_simulated").inc(
                result["configs_simulated"])
            self.metrics.counter("serve.replay.configs_reused").inc(
                result["configs_reused"])
        by_key = dict(zip(batch.union.keys(), result["stats"]))
        for keys, future, _ in batch.waiters:
            if future.done():
                continue
            future.set_result({
                "workload": batch.workload,
                "spec": batch.spec,
                "trace_entries": result["trace_entries"],
                "stats": [by_key[key] for key in keys],
                "batch_size": len(batch.waiters),
                "batched_configs": len(batch.union),
                "worker_pid": result["worker_pid"],
            })

    def pending(self) -> int:
        """Requests parked until a replay slot frees (health endpoint)."""
        return sum(len(batch.waiters) for batch in self._parked)
