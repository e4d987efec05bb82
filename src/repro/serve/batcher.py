"""Coalescing of compatible cache-replay requests.

Replay is the service's cheapest op per unit of asked-for work — one
``simulate_many`` call runs any number of cache configurations over a
workload's packed trace, one kernel pass each, with the run's own
access totals.  The batcher turns
that property into a serving win: replay requests that name the **same
workload and run spec** (the compatibility criterion — one workload
under one spec yields one trace) and arrive within one *batch window*
are merged into a single worker task
over the union of their configurations, deduplicated by canonical
config identity.  Each request is answered with exactly its own
configurations' statistics, in its own requested order, so batching is
invisible to clients except for the ``batch_size`` field in the result
(and the latency win).

The window (default 5 ms) bounds the coalescing delay a lone request
pays; a batch whose config union reaches ``max_configs`` flushes
immediately.  All bookkeeping runs on the event loop — the only
``await`` points are the window sleep and the pool call — so no locks
are needed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve import pool as pool_mod
from repro.serve.protocol import canonical_config_key


@dataclass
class _Batch:
    """One (workload, spec)'s pending replay requests in this window."""

    workload: str
    spec: str
    #: canonical config key -> JSON dict, in first-seen order.
    union: dict[tuple, dict] = field(default_factory=dict)
    #: one (requested keys, future) pair per client request.
    waiters: list[tuple[list[tuple], asyncio.Future]] = \
        field(default_factory=list)
    timer: asyncio.Task | None = None


class ReplayBatcher:
    """Merge same-workload replay requests into single worker tasks."""

    def __init__(self, pool: "pool_mod.WorkerPool", *,
                 window_s: float = 0.005, max_configs: int = 64,
                 metrics=None):
        self.pool = pool
        self.window_s = window_s
        self.max_configs = max_configs
        self.metrics = metrics
        self._pending: dict[tuple[str, str], _Batch] = {}

    async def submit(self, workload: str, configs: list[dict],
                     spec: str = "faithful") -> dict:
        """Queue one replay request; await its (possibly batched) result.

        ``configs`` must already be validated (the server normalizes
        them through :func:`canonical_config_key` before calling), and
        ``spec`` must already name a PSI run spec, so the only failures
        surfacing here are worker-side ones, which propagate to every
        waiter of the batch.  Requests are coalesced per (workload,
        spec) — a faithful and an indexed replay of the same workload
        never share a batch (their traces differ).
        """
        keys = []
        batch = self._pending.get((workload, spec))
        if batch is None:
            batch = _Batch(workload, spec)
            self._pending[(workload, spec)] = batch
            batch.timer = asyncio.create_task(self._flush_after(batch))
        for config in configs:
            key = canonical_config_key(config)
            keys.append(key)
            batch.union.setdefault(key, config)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        batch.waiters.append((keys, future))
        if len(batch.union) >= self.max_configs:
            self._flush_now(batch)
        return await future

    async def _flush_after(self, batch: _Batch) -> None:
        try:
            await asyncio.sleep(self.window_s)
        except asyncio.CancelledError:
            return
        self._flush_now(batch)

    def _flush_now(self, batch: _Batch) -> None:
        key = (batch.workload, batch.spec)
        if self._pending.get(key) is not batch:
            return                      # already flushed (max_configs path)
        del self._pending[key]
        if batch.timer is not None and not batch.timer.done():
            batch.timer.cancel()
        asyncio.create_task(self._run_batch(batch))

    async def _run_batch(self, batch: _Batch) -> None:
        if self.metrics is not None:
            self.metrics.counter("serve.replay.batches").inc()
            self.metrics.counter("serve.replay.requests").inc(
                len(batch.waiters))
            self.metrics.counter(f"serve.replay.spec.{batch.spec}").inc(
                len(batch.waiters))
            self.metrics.counter("serve.replay.configs_simulated").inc(
                len(batch.union))
            self.metrics.counter("serve.replay.configs_requested").inc(
                sum(len(keys) for keys, _ in batch.waiters))
        try:
            result = await self.pool.run(pool_mod.worker_replay,
                                         batch.workload, batch.spec,
                                         list(batch.union.values()))
        except Exception as exc:
            for _, future in batch.waiters:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"replay of {batch.workload} failed: "
                                     f"{exc}"))
            return
        by_key = dict(zip(batch.union.keys(), result["stats"]))
        for keys, future in batch.waiters:
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
        """Requests currently parked in an open window (health endpoint)."""
        return sum(len(batch.waiters) for batch in self._pending.values())
