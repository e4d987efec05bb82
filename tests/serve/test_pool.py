"""Worker-pool fault recovery: a dead worker must not take the pool down."""

import asyncio
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.serve.pool import WorkerPool, worker_warm


def test_crashed_worker_is_respawned(tmp_path):
    """The request whose worker dies fails; the next one is served by a
    fresh executor, ``health`` reports both the failure and the
    respawn, and the workers' signals never reach the serving loop."""
    pool = WorkerPool(2, cache_dir=str(tmp_path), disk_cache=False)
    drains = []

    async def scenario():
        # What ``psi-eval serve`` installs: a SIGTERM on the server
        # process drains it.  When one worker dies, the executor
        # SIGTERMs the survivor, which must not trigger this handler.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, drains.append, "drain")
        try:
            with pytest.raises(BrokenProcessPool):
                await asyncio.wait_for(pool.run(os._exit, 1), timeout=60)
            result = await asyncio.wait_for(pool.run(worker_warm, []),
                                            timeout=60)
            await asyncio.sleep(0.2)
            return result
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    try:
        result = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert result["warmed"] == 0
    assert drains == []
    health = pool.health()
    assert health["respawns"] == 1
    assert health["failed"] == 1
    assert health["completed"] == 1
    assert health["inflight"] == 0


def test_worker_dead_while_idle_fails_no_request(tmp_path):
    """A worker killed between requests breaks the executor before the
    next submission; that request never ran, so it is resubmitted to a
    fresh executor and succeeds."""
    pool = WorkerPool(1, cache_dir=str(tmp_path), disk_cache=False)

    async def scenario():
        pid = await asyncio.wait_for(pool.run(os.getpid), timeout=60)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._executor._broken and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        return await asyncio.wait_for(pool.run(worker_warm, []), timeout=60)

    try:
        result = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert result["warmed"] == 0
    health = pool.health()
    assert health["respawns"] == 1
    assert health["failed"] == 0
    assert health["completed"] == 2
