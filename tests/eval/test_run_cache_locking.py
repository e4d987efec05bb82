"""Concurrency tests for the run cache's file locking.

The contract under test (``RunCache.load_or_compute``): when N
processes miss the same key simultaneously, exactly one computes —
the others block on the per-key ``flock`` and then load the stored
entry — and the store is never corrupted.  On platforms without
``fcntl`` the lock degrades to safe recompute over atomic renames.
"""

import multiprocessing
import os
import time

from repro.eval import run_cache as run_cache_mod
from repro.eval.run_cache import RunCache
from repro.tools.collect import RunSummary, StatsCollector

PROCESSES = 4
KEY = "deadbeef" * 8


def _summary(goal: str = "locked?") -> RunSummary:
    return RunSummary(goal=goal, succeeded=True, solutions=1,
                      stats=StatsCollector(), trace_bytes=None,
                      cache=None)


def _contend(root, side_effect_path, barrier, results):
    """One contender: barrier-synchronised load_or_compute on KEY.

    ``compute`` sleeps while holding the key lock and appends its pid
    to a side-effect file — the exactly-once assertion counts lines.
    """
    cache = RunCache(root)

    def compute() -> RunSummary:
        time.sleep(0.3)
        with open(side_effect_path, "a") as fp:
            fp.write(f"{os.getpid()}\n")
        return _summary()

    barrier.wait()
    summary, outcome = cache.load_or_compute(KEY, compute)
    results.put((os.getpid(), outcome, summary.goal))


def test_n_processes_one_key_exactly_once(tmp_path):
    root = tmp_path / "cache"
    side_effect = tmp_path / "computed.log"
    side_effect.touch()
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(PROCESSES)
    results = context.Queue()
    procs = [context.Process(target=_contend,
                             args=(str(root), str(side_effect), barrier,
                                   results))
             for _ in range(PROCESSES)]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=60) for _ in range(PROCESSES)]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    # Exactly one compute ran, every process got the stored summary.
    assert len(side_effect.read_text().splitlines()) == 1
    by_outcome = {}
    for _, outcome, goal in outcomes:
        assert goal == "locked?"
        by_outcome.setdefault(outcome, 0)
        by_outcome[outcome] += 1
    # The rest waited on the lock, then loaded the stored entry.
    assert by_outcome == {"computed": 1, "wait_hit": PROCESSES - 1}

    # Store integrity: one entry, no temp-file debris, loadable.
    assert len(list(root.glob("*.run"))) == 1
    assert list(root.glob("*.tmp*")) == []
    assert RunCache(root).load(KEY).goal == "locked?"


def test_no_fcntl_fallback_recomputes_safely(tmp_path, monkeypatch):
    """Without fcntl the lock is a no-op and compute runs unguarded —
    still correct (atomic rename, last writer wins), just not
    exactly-once."""
    monkeypatch.setattr(run_cache_mod, "fcntl", None)
    cache = RunCache(tmp_path / "cache")
    with cache.lock(KEY) as locked:
        assert locked is False
    summary, outcome = cache.load_or_compute(KEY, _summary)
    assert outcome == "computed"
    assert cache.load(KEY).goal == summary.goal
    assert list((tmp_path / "cache").glob("*.lock")) == []


def test_clear_sweeps_lock_files(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cache.store(KEY, _summary())
    with cache.lock(KEY):
        pass
    assert list(cache.root.glob("*.lock")) != []
    assert cache.clear() == 1            # lock files are not counted
    assert list(cache.root.glob("*.lock")) == []
    assert cache.entries() == []


def _run_spec_contender(cache_dir, spec_name, barrier, results):
    """Fork-inherited interpreter state is reset so every process takes
    the disk-tier path on the same key, concurrently."""
    os.environ["PSI_CACHE_DIR"] = cache_dir
    from repro.eval import runner

    runner.clear_cache()
    runner.set_disk_cache(True)
    barrier.wait()
    run = runner.run_spec("nreverse", spec_name, record_trace=False)
    results.put((spec_name, dict(runner.CACHE_EVENTS), run.steps,
                 [list(map(list, answer)) for answer in run.answers]))


def test_concurrent_cold_start_two_specs_computes_once_each(tmp_path):
    """N processes race TWO specs on one cold cache: exactly one
    interpretation per spec, one labelled disk entry per spec, and no
    contender is ever served the other spec's entry."""
    context = multiprocessing.get_context("fork")
    spec_names = ["faithful", "indexed"] * 2
    barrier = context.Barrier(len(spec_names))
    results = context.Queue()
    procs = [context.Process(target=_run_spec_contender,
                             args=(str(tmp_path), name, barrier, results))
             for name in spec_names]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for _ in range(len(spec_names))]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    for spec_name in ("faithful", "indexed"):
        events = [e for name, e, _, _ in outcomes if name == spec_name]
        assert len(events) == 2
        assert sum(e.get(f"disk_compute:{spec_name}", 0)
                   for e in events) == 1
        assert all(e.get(f"disk_compute:{spec_name}", 0)
                   + e.get(f"disk_wait_hit:{spec_name}", 0)
                   + e.get(f"disk_hit:{spec_name}", 0) == 1 for e in events)
        # No cross-spec pollution: a contender never touches the other
        # spec's cache key.
        other = "indexed" if spec_name == "faithful" else "faithful"
        assert all(not any(key.endswith(f":{other}") for key in e)
                   for e in events)

    # Two disk entries — one per spec fingerprint — each labelled with
    # its spec name, no temp-file debris.
    cache = RunCache(tmp_path)
    runs = sorted(tmp_path.glob("*.run"))
    assert len(runs) == 2
    assert sorted(cache.entry_label(path) for path in runs) \
        == ["faithful", "indexed"]
    assert list(tmp_path.glob("*.tmp*")) == []

    # Indexing narrows the clause scan, so the two specs' modelled
    # step counts differ — a cross-spec mixup would equalise them.
    steps = {name: n for name, _, n, _ in outcomes}
    assert steps["faithful"] != steps["indexed"]


def test_run_spec_concurrent_cold_start_computes_once(tmp_path):
    """The full stack: N ``run_spec`` processes race one cold cache key;
    one interprets, the rest block on the lock and load its entry."""
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(3)
    results = context.Queue()
    procs = [context.Process(target=_run_spec_contender,
                             args=(str(tmp_path), "faithful", barrier,
                                   results))
             for _ in range(3)]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for _ in range(3)]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    events = [e for _, e, _, _ in outcomes]
    answers = [a for _, _, _, a in outcomes]
    assert answers[0] == answers[1] == answers[2]
    assert sum(e.get("disk_compute", 0) for e in events) == 1
    assert all(e.get("disk_compute", 0) + e.get("disk_wait_hit", 0)
               + e.get("disk_hit", 0) == 1 for e in events)
    assert len(list(tmp_path.glob("*.run"))) == 1
    assert list(tmp_path.glob("*.tmp*")) == []
