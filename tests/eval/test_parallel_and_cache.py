"""Parallel execution and persistent run-cache behaviour.

The contract of the whole pipeline: serial, process-parallel and
disk-cached execution render **byte-identical** tables and figures, and
a damaged or stale cache entry is detected and recomputed, never
trusted.  Fast workloads keep the whole module in seconds.
"""

import pathlib

import pytest

from repro.eval import figure1, runner, table3, table4, table5
from repro.eval.run_cache import RunCache, run_key
from repro.eval.specs import get_spec
from repro.tools.collect import RunSummary

FAST_PROGRAMS = {"bup": "bup-1", "lcp": "lcp-1", "lcp2": "lcp-2"}
FIGURE1_WORKLOAD = "lcp-2"
FIGURE1_CAPACITIES = (8, 256, 8192)


def render_everything() -> str:
    """Tables 3/4/5 + Figure 1 over the fast workloads, one big string."""
    parts = [
        table3.render(table3.generate(FAST_PROGRAMS)),
        table4.render(table4.generate(FAST_PROGRAMS)),
        table5.render(table5.generate(FAST_PROGRAMS)),
        figure1.render(figure1.generate(FIGURE1_WORKLOAD,
                                        capacities=FIGURE1_CAPACITIES)),
    ]
    return "\n\n".join(parts)


@pytest.fixture()
def fresh(tmp_path, monkeypatch):
    """Isolated disk cache + clean per-process caches."""
    monkeypatch.setenv("PSI_CACHE_DIR", str(tmp_path / "psi-cache"))
    runner.clear_cache()
    runner.set_disk_cache(True)
    yield tmp_path / "psi-cache"
    runner.set_disk_cache(True)
    runner.clear_cache()


class TestParallelDeterminism:
    def test_jobs4_renders_byte_identical(self, fresh):
        runner.set_disk_cache(False)
        serial = render_everything()

        runner.clear_cache()
        runs = runner.run_many(FAST_PROGRAMS.values(), jobs=4)
        assert set(runs) == set(FAST_PROGRAMS.values())
        parallel = render_everything()
        assert parallel == serial

    def test_parallel_populates_process_cache(self, fresh):
        runner.set_disk_cache(False)
        runs = runner.run_many(["bup-1", "lcp-1"], jobs=2)
        for name, run in runs.items():
            assert runner.run_spec(name, "faithful") is run

    def test_run_many_serial_fallback(self, fresh):
        runner.set_disk_cache(False)
        runs = runner.run_many(["bup-1", "bup-1", "lcp-1"], jobs=None)
        assert list(runs) == ["bup-1", "lcp-1"]


class TestDiskCache:
    def test_disk_cached_renders_byte_identical(self, fresh):
        first = render_everything()
        assert runner.CACHE_EVENTS["disk_miss"] > 0
        stored = RunCache().entries()
        assert stored, "runs were not persisted"

        runner.clear_cache()          # drop the per-process tier only
        cached = render_everything()
        assert runner.CACHE_EVENTS["disk_hit"] > 0
        assert runner.CACHE_EVENTS["disk_miss"] == 0
        assert cached == first

    def test_no_disk_cache_bypasses(self, fresh):
        runner.set_disk_cache(False)
        runner.run_spec("lcp-1", "faithful")
        assert RunCache().entries() == []
        assert runner.CACHE_EVENTS["disk_miss"] == 0

    def test_corrupted_entry_recomputed(self, fresh):
        run = runner.run_spec("lcp-1", "faithful")
        reference = run.stats.total_steps
        (entry,) = RunCache().entries()

        # Flip bytes in the payload: the digest check must reject it.
        blob = bytearray(entry.read_bytes())
        blob[-20:] = b"\x00" * 20
        entry.write_bytes(bytes(blob))

        runner.clear_cache()
        rerun = runner.run_spec("lcp-1", "faithful")
        assert runner.CACHE_EVENTS["disk_hit"] == 0
        assert runner.CACHE_EVENTS["disk_miss"] == 1
        assert rerun.stats.total_steps == reference
        # The bad entry was discarded and replaced by a valid one.
        assert RunCache().load(entry.stem) is not None

    def test_stale_key_not_trusted(self, fresh):
        """An entry filed under the wrong key (stale hash) is a miss."""
        runner.run_spec("lcp-1", "faithful")
        (entry,) = RunCache().entries()
        wrong = entry.with_name("0" * 64 + ".run")
        entry.rename(wrong)

        cache = RunCache()
        assert cache.load("0" * 64) is None          # header key mismatch
        assert not wrong.exists()

    def test_truncated_entry_is_miss(self, fresh):
        runner.run_spec("lcp-1", "faithful")
        (entry,) = RunCache().entries()
        entry.write_bytes(entry.read_bytes()[:40])
        runner.clear_cache()
        assert runner.run_spec("lcp-1", "faithful").succeeded
        assert runner.CACHE_EVENTS["disk_miss"] == 1

    def test_cache_clear(self, fresh):
        runner.run_spec("lcp-1", "faithful")
        cache = RunCache()
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_key_depends_on_inputs(self):
        base = dict(source="p.", goal="p", setup_goals=(), all_solutions=False,
                    machine_config="m", cache_config="c")
        key = run_key(**base)
        assert key != run_key(**{**base, "goal": "q"})
        assert key != run_key(**{**base, "source": "p2."})
        assert key != run_key(**{**base, "setup_goals": ("s",)})
        assert key != run_key(**{**base, "all_solutions": True})
        assert key != run_key(**{**base, "machine_config": "m2"})
        assert key == run_key(**base)

    def test_fresh_runs_always_record_no_upgrade_needed(self, fresh):
        """Real executions record the trace unconditionally, so a later
        ``record_trace=True`` caller is served from the memory tier
        without the trace-upgrade double execution."""
        runner.set_disk_cache(False)
        first = runner.run_spec("lcp-1", "faithful", record_trace=False)
        assert first.trace is not None
        upgraded = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert upgraded is first
        assert runner.CACHE_EVENTS["trace_upgrade"] == 0
        assert runner.CACHE_EVENTS["memory_hit"] == 1

    def test_trace_upgrade_logged_for_stale_no_trace_entry(self, fresh,
                                                           caplog):
        """A memory-tier entry without a trace (e.g. rebuilt from an old
        disk summary) still triggers the visible, counted re-run."""
        import dataclasses

        runner.set_disk_cache(False)
        first = runner.run_spec("lcp-1", "faithful")
        runner._memo(get_spec("faithful"))["lcp-1"] = dataclasses.replace(
            first, trace=None)
        with caplog.at_level("WARNING", logger="repro.eval.runner"):
            upgraded = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert upgraded.trace is not None
        assert runner.CACHE_EVENTS["trace_upgrade"] == 1
        assert any("re-running to record one" in message
                   for message in caplog.messages)

    def test_disk_cache_stores_traced_variant(self, fresh):
        """A no-trace request still persists (and later serves) the trace."""
        runner.run_spec("lcp-1", "faithful", record_trace=False)
        runner.clear_cache()
        run = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert runner.CACHE_EVENTS["disk_hit"] == 1
        assert runner.CACHE_EVENTS["trace_upgrade"] == 0
        assert run.trace is not None

    def test_summary_round_trip_preserves_renderable_stats(self, fresh):
        run = runner.run_spec("bup-1", "faithful")
        rebuilt = run.to_summary().to_collected_run()
        assert rebuilt.machine is None
        assert rebuilt.steps == run.steps
        assert rebuilt.time_ms == run.time_ms
        assert rebuilt.stats.routine_counts == run.stats.routine_counts
        assert rebuilt.stats.mem_counts == run.stats.mem_counts
        assert list(rebuilt.trace.entries()) == list(run.trace.entries())
        assert rebuilt.cache.stats.hit_ratio == run.cache.stats.hit_ratio

    def test_load_rejects_non_summary_payload(self, fresh, tmp_path):
        import hashlib
        import pickle

        cache = RunCache(tmp_path / "other")
        key = "a" * 64
        payload = pickle.dumps({"not": "a summary"})
        blob = b"".join([b"psi-run-cache\n", key.encode() + b"\n",
                         hashlib.sha256(payload).hexdigest().encode() + b"\n",
                         payload])
        cache.root.mkdir(parents=True)
        (cache.root / f"{key}.run").write_bytes(blob)
        assert cache.load(key) is None
