"""ReplayBatcher unit tests against a fake worker pool.

The batching contract under test is work-conserving: a replay goes to
the pool at once while a replay slot (one per pool worker) is free;
requests that arrive while every slot is busy park per (workload,
spec) and coalesce into one pool call over the deduplicated config
union, dispatched oldest first as slots free.  Every request gets back
exactly its own configs' stats, in its own order, and worker failures
propagate to every waiter.
"""

import asyncio

from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import ReplayBatcher


class FakePool:
    """Echoes each config back as its own 'stats' entry.

    ``workers`` sets the batcher's replay slots.  While ``hold`` is
    true, every call blocks until :meth:`release`, so a test can keep
    all slots busy and watch what parks.
    """

    def __init__(self, workers=1, fail=False, hold=False):
        self.workers = workers
        self.calls = []
        self.fail = fail
        self.gate = asyncio.Event()
        if not hold:
            self.gate.set()

    def release(self):
        self.gate.set()

    async def run(self, fn, workload, spec, configs):
        self.calls.append((workload, spec, configs))
        await self.gate.wait()
        await asyncio.sleep(0)       # yield, like a real executor hop
        if self.fail:
            raise RuntimeError("worker exploded")
        return {
            "workload": workload,
            "spec": spec,
            "trace_entries": 42,
            "stats": [dict(config, echoed=True) for config in configs],
            "configs_simulated": len(configs),
            "configs_reused": 0,
            "worker_pid": 999,
        }


async def _settle():
    """Let every ready task run; no timer is involved."""
    for _ in range(5):
        await asyncio.sleep(0)


def test_lone_request_reaches_the_pool_without_waiting():
    pool = FakePool(workers=2, hold=True)
    metrics = MetricsRegistry()

    async def scenario():
        batcher = ReplayBatcher(pool, metrics=metrics)
        task = asyncio.create_task(batcher.submit("w", [{}]))
        await _settle()
        reached = len(pool.calls)
        parked = batcher.pending()
        pool.release()
        return reached, parked, await task

    reached, parked, result = asyncio.run(scenario())
    assert reached == 1 and parked == 0
    assert result["batch_size"] == 1
    wait = metrics.get("serve.replay.wait_ms")
    assert wait.count == 1
    assert wait.mean < 5.0


def test_concurrent_requests_coalesce_to_one_pool_call():
    pool = FakePool(workers=1, hold=True)
    metrics = MetricsRegistry()

    async def scenario():
        batcher = ReplayBatcher(pool, metrics=metrics)
        first = asyncio.create_task(
            batcher.submit("w", [{"capacity_words": 512}]))
        await _settle()                  # the only slot is now busy
        queued = [asyncio.create_task(batcher.submit("w", configs))
                  for configs in ([{"capacity_words": 1024}],
                                  [{"capacity_words": 8192}],
                                  [{"capacity_words": 1024}, {}])]
        await _settle()
        parked = batcher.pending()
        pool.release()
        return parked, await first, await asyncio.gather(*queued)

    parked, first, (r1, r2, r3) = asyncio.run(scenario())
    assert parked == 3
    assert first["batch_size"] == 1
    assert len(pool.calls) == 2
    _, spec, union = pool.calls[1]
    assert spec == "faithful"
    # 1024 is requested twice, and {} canonicalises to the default
    # geometry (capacity 8192) so it merges with the explicit 8192:
    # four requested configs, two in the union.
    assert len(union) == 2
    assert [s["capacity_words"] for s in r1["stats"]] == [1024]
    assert [s["capacity_words"] for s in r2["stats"]] == [8192]
    assert [s["capacity_words"] for s in r3["stats"]] == [1024, 8192]
    for result in (r1, r2, r3):
        assert result["batch_size"] == 3
        assert result["batched_configs"] == 2
        assert result["trace_entries"] == 42
    assert metrics.value("serve.replay.batches") == 2
    assert metrics.value("serve.replay.requests") == 4
    assert metrics.value("serve.replay.configs_requested") == 5
    # The worker's own count of kernel passes, not the union size.
    assert metrics.value("serve.replay.configs_simulated") == 3
    assert metrics.value("serve.replay.configs_reused") == 0
    assert metrics.get("serve.replay.wait_ms").count == 4


def _parked_calls(submissions, **batcher_args):
    """Hold the single slot with one request, park ``submissions``
    ((workload, configs, spec) triples), release; return the pool
    calls after the holder's and the parked requests' results."""
    pool = FakePool(workers=1, hold=True)

    async def scenario():
        batcher = ReplayBatcher(pool, **batcher_args)
        holder = asyncio.create_task(batcher.submit("holder", [{}]))
        await _settle()
        parked = [asyncio.create_task(batcher.submit(w, c, spec=s))
                  for w, c, s in submissions]
        await _settle()
        pool.release()
        await holder
        return await asyncio.gather(*parked)

    results = asyncio.run(scenario())
    return pool.calls[1:], results


def test_different_workloads_do_not_batch():
    calls, (ra, rb) = _parked_calls([("a", [{}], "faithful"),
                                     ("b", [{}], "faithful")])
    assert [call[0] for call in calls] == ["a", "b"]
    assert ra["workload"] == "a" and rb["workload"] == "b"
    assert ra["batch_size"] == rb["batch_size"] == 1


def test_different_specs_do_not_batch():
    calls, (rf, ri) = _parked_calls([("w", [{}], "faithful"),
                                     ("w", [{}], "indexed")])
    assert [call[1] for call in calls] == ["faithful", "indexed"]
    assert rf["spec"] == "faithful" and ri["spec"] == "indexed"
    assert rf["batch_size"] == ri["batch_size"] == 1


def test_parked_batches_dispatch_oldest_first():
    calls, results = _parked_calls([("b", [{}], "faithful"),
                                    ("a", [{}], "faithful"),
                                    ("b", [{"capacity_words": 1024}],
                                     "faithful")])
    assert [call[0] for call in calls] == ["b", "a"]
    assert [r["batch_size"] for r in results] == [2, 1, 2]


def test_max_configs_bounds_the_batch_union():
    calls, results = _parked_calls(
        [("w", [{"capacity_words": 1024}], "faithful"),
         ("w", [{"capacity_words": 2048}], "faithful"),
         # Already in the first union: joins it without growing it.
         ("w", [{"capacity_words": 1024}], "faithful"),
         # Would make three: opens a second batch.
         ("w", [{"capacity_words": 4096}], "faithful")],
        max_configs=2)
    assert [len(call[2]) for call in calls] == [2, 1]
    assert [r["batched_configs"] for r in results] == [2, 2, 2, 1]
    assert [r["stats"][0]["capacity_words"] for r in results] == \
        [1024, 2048, 1024, 4096]


def test_worker_failure_propagates_to_every_waiter():
    pool = FakePool(workers=1, fail=True, hold=True)

    async def scenario():
        batcher = ReplayBatcher(pool)
        first = asyncio.create_task(batcher.submit("w", [{}]))
        await _settle()
        parked = [asyncio.create_task(batcher.submit("w", configs))
                  for configs in ([{}], [{"capacity_words": 1024}])]
        await _settle()
        pool.release()
        return await asyncio.gather(first, *parked, return_exceptions=True)

    results = asyncio.run(scenario())
    assert len(pool.calls) == 2          # the holder, then the coalesced two
    assert len(results) == 3
    for exc in results:
        assert isinstance(exc, RuntimeError)
        assert "worker exploded" in str(exc)


def test_pending_counts_parked_waiters():
    pool = FakePool(workers=1, hold=True)

    async def scenario():
        batcher = ReplayBatcher(pool)
        first = asyncio.create_task(batcher.submit("w", [{}]))
        await _settle()
        running = batcher.pending()
        second = asyncio.create_task(batcher.submit("w", [{}]))
        await _settle()
        parked = batcher.pending()
        pool.release()
        await asyncio.gather(first, second)
        return running, parked, batcher.pending()

    running, parked, after = asyncio.run(scenario())
    assert running == 0
    assert parked == 1
    assert after == 0
