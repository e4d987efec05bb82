"""Worker-pool fault recovery: a dead worker must not take the pool down."""

import asyncio
import errno
import os
import signal
import threading
import time

import pytest

from repro.serve.pool import (
    UnpicklableResult,
    WorkerCrashed,
    WorkerPool,
    worker_warm,
)


def _raise_unpicklable():
    raise ValueError(threading.Lock())


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt: ``args`` holds one of two."""

    def __init__(self, first, second):
        super().__init__(first)


def _raise_unrebuildable():
    raise _TwoArgError("first", "second")


async def _pids(pool, count):
    """The pids of ``count`` workers, from as many concurrent calls."""
    return await asyncio.gather(*(pool.run(os.getpid)
                                  for _ in range(count)))


def test_crashed_worker_is_respawned(tmp_path):
    """The request whose worker dies fails with a typed error naming
    its pid and exit code; the next one is served, ``health`` reports
    both the failure and the respawn, and the workers' signals never
    reach the serving loop."""
    pool = WorkerPool(2, cache_dir=str(tmp_path), disk_cache=False)
    drains = []

    async def scenario():
        # What ``psi-eval serve`` installs: a SIGTERM on the server
        # process drains it.  No worker death may trigger this handler.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, drains.append, "drain")
        try:
            with pytest.raises(WorkerCrashed,
                               match=r"worker \d+ died with exit code 1"):
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


def test_surviving_worker_keeps_serving(tmp_path):
    """Only the dead worker's slot is refilled: the other worker, and
    its warm memo, serves on under the same pid."""
    pool = WorkerPool(2, cache_dir=str(tmp_path), disk_cache=False)

    async def scenario():
        before = set(await asyncio.wait_for(_pids(pool, 2), timeout=60))
        with pytest.raises(WorkerCrashed) as crash:
            await asyncio.wait_for(pool.run(os._exit, 1), timeout=60)
        after = set(await asyncio.wait_for(_pids(pool, 2), timeout=60))
        return before, crash.value, after

    try:
        before, crash, after = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert len(before) == 2 and crash.pid in before
    assert crash.exitcode == 1
    assert before - {crash.pid} <= after
    assert crash.pid not in after and len(after) == 2
    assert pool.health()["respawns"] == 1


def test_worker_dead_while_idle_fails_no_request(tmp_path):
    """A worker killed between requests is noticed (EOF on its idle
    pipe) and replaced before it is handed a request, so the next
    request runs on the replacement and succeeds."""
    pool = WorkerPool(1, cache_dir=str(tmp_path), disk_cache=False)

    async def scenario():
        pid = await asyncio.wait_for(pool.run(os.getpid), timeout=60)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while pool.health()["respawns"] == 0 \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        result = await asyncio.wait_for(pool.run(worker_warm, []),
                                        timeout=60)
        return pid, result

    try:
        pid, result = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert result["warmed"] == 0
    assert result["worker_pid"] != pid
    health = pool.health()
    assert health["respawns"] == 1
    assert health["failed"] == 0
    assert health["completed"] == 2


def _fail_forks(pool, count):
    """Make the next ``count`` forks of ``pool`` fail as fork does when
    the host is out of memory."""
    spawn = pool._spawn
    left = [count]

    def failing():
        if left[0]:
            left[0] -= 1
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return spawn()

    pool._spawn = failing


def test_failed_refill_fails_requests_instead_of_hanging(tmp_path):
    """When the fork that would refill a dead worker's slot fails, the
    dead worker's request still fails with ``WorkerCrashed`` and a
    request waiting for the only worker fails with the fork's error.
    Each later request retries the fork: one whose fork fails too gets
    its error, and the first whose fork succeeds is served."""
    pool = WorkerPool(1, cache_dir=str(tmp_path), disk_cache=False)
    _fail_forks(pool, 2)

    async def scenario():
        crashed, waited = await asyncio.wait_for(asyncio.gather(
            pool.run(os._exit, 1), pool.run(os.getpid),
            return_exceptions=True), timeout=60)
        with pytest.raises(OSError) as retried:
            await asyncio.wait_for(pool.run(os.getpid), timeout=60)
        pid = await asyncio.wait_for(pool.run(os.getpid), timeout=60)
        return crashed, waited, retried.value, pid

    try:
        crashed, waited, retried, pid = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert isinstance(crashed, WorkerCrashed) and crashed.exitcode == 1
    assert isinstance(waited, OSError) and waited.errno == errno.ENOMEM
    assert retried.errno == errno.ENOMEM
    assert pid != crashed.pid
    health = pool.health()
    assert health["failed"] == 3
    assert health["completed"] == 1
    assert health["respawns"] == 1
    assert health["inflight"] == 0


@pytest.mark.parametrize("fn, error, match", [
    (int, ValueError, "invalid literal"),
    (_raise_unpicklable, UnpicklableResult,
     "ValueError exception cannot be pickled"),
    (_raise_unrebuildable, UnpicklableResult, "cannot be unpickled"),
    (threading.Lock, UnpicklableResult, "result cannot be pickled"),
], ids=["raises", "unpicklable-exception", "unrebuildable-exception",
        "unpicklable-result"])
def test_failed_work_function_keeps_its_worker(tmp_path, fn, error, match):
    """An exception from a work function, or a result or exception
    that cannot cross the pipe, is an ordinary failed request: the
    same worker serves the next one and nothing is respawned."""
    pool = WorkerPool(1, cache_dir=str(tmp_path), disk_cache=False)
    args = ("x",) if fn is int else ()

    async def scenario():
        pid = await asyncio.wait_for(pool.run(os.getpid), timeout=60)
        with pytest.raises(error, match=match):
            await asyncio.wait_for(pool.run(fn, *args), timeout=60)
        return pid, await asyncio.wait_for(pool.run(worker_warm, []),
                                           timeout=60)

    try:
        pid, result = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert result["worker_pid"] == pid
    health = pool.health()
    assert health["respawns"] == 0
    assert health["failed"] == 1
    assert health["completed"] == 2


def test_unpicklable_request_never_reaches_a_worker(tmp_path):
    pool = WorkerPool(1, cache_dir=str(tmp_path), disk_cache=False)

    async def scenario():
        with pytest.raises(TypeError, match="pickle"):
            await pool.run(worker_warm, [threading.Lock()])
        return await asyncio.wait_for(pool.run(worker_warm, []), timeout=60)

    try:
        assert asyncio.run(scenario())["warmed"] == 0
    finally:
        pool.shutdown()
    assert pool.health()["respawns"] == 0


def test_shutdown_reaps_every_worker(tmp_path):
    pool = WorkerPool(2, cache_dir=str(tmp_path), disk_cache=False)
    try:
        pids = asyncio.run(asyncio.wait_for(_pids(pool, 2), timeout=60))
    finally:
        pool.shutdown()
    assert len(set(pids)) == 2
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}"), \
            f"worker {pid} not reaped by shutdown()"
    with pytest.raises(RuntimeError, match="shut down"):
        asyncio.run(pool.run(os.getpid))
