"""Parallel execution and persistent run-cache behaviour.

The contract of the whole pipeline: serial, process-parallel and
disk-cached execution render **byte-identical** tables and figures, and
a damaged or stale cache entry is detected and recomputed, never
trusted.  Fast workloads keep the whole module in seconds.
"""

import pathlib

import pytest

from repro.eval import figure1, runner, table2, table3, table4, table5
from repro.eval.run_cache import RunCache, run_key
from repro.eval.specs import get_spec
from repro.eval.table4 import AREA_ORDER
from repro.memsys import Cache, CacheConfig, CacheResult
from repro.tools.collect import RunSummary
from repro.tools.pmms import simulate_many

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

    def test_rebuilt_run_allocates_no_cache_sets(self, fresh, monkeypatch):
        """The rebuilt run keeps the live run's cache config and stats
        as a finished result; no simulator (and none of its per-set
        storage) is built."""
        run = runner.run_spec("bup-1", "faithful")
        summary = run.to_summary()

        def no_simulator(self, config=None):
            raise AssertionError("rebuild constructed a Cache")

        monkeypatch.setattr(Cache, "__init__", no_simulator)
        rebuilt = summary.to_collected_run()
        assert type(rebuilt.cache) is CacheResult
        assert type(run.cache) is CacheResult
        assert rebuilt.cache.config == run.cache.config == CacheConfig()
        assert rebuilt.cache.stats is run.cache.stats
        (entry,) = RunCache().entries()
        stored = RunCache().load(entry.stem, trace=False)
        assert stored.to_collected_run().cache.stats.snapshot() == \
            run.cache.stats.snapshot()

    def test_load_rejects_non_summary_payload(self, fresh, tmp_path, caplog):
        import hashlib
        import pickle

        cache = RunCache(tmp_path / "other")
        key = "a" * 64
        payload = pickle.dumps({"not": "a summary"})
        blob = b"".join([
            b"psi-run-cache\n", key.encode() + b"\n", b"spec=faithful\n",
            f"{hashlib.sha256(payload).hexdigest()} {len(payload)}\n".encode(),
            b"- 0\n", payload])
        cache.root.mkdir(parents=True)
        (cache.root / f"{key}.run").write_bytes(blob)
        with caplog.at_level("WARNING", logger="repro.eval.run_cache"):
            assert cache.load(key) is None
        assert any("payload is not a RunSummary" in message
                   for message in caplog.messages)

    def test_trace_free_memo_entry_served_trace_from_disk(self, fresh,
                                                          caplog):
        """table2 leaves trace-free runs in the memo; Figure 1 then
        replays one of them and gets its trace from the entry's trace
        section — a disk hit, no re-execution, no upgrade warning."""
        def figure():
            return figure1.render(figure1.generate(
                FIGURE1_WORKLOAD, capacities=FIGURE1_CAPACITIES))

        table2.generate(FAST_PROGRAMS)
        cold = figure()
        runner.clear_cache()
        with caplog.at_level("WARNING", logger="repro.eval.runner"):
            table2.generate(FAST_PROGRAMS)
            warm = figure()
        assert FIGURE1_WORKLOAD in FAST_PROGRAMS.values()
        assert runner.CACHE_EVENTS["disk_compute"] == 0
        assert runner.CACHE_EVENTS["trace_upgrade"] == 0
        assert runner.CACHE_EVENTS["disk_hit"] == len(FAST_PROGRAMS) + 1
        assert not any("re-running" in message for message in caplog.messages)
        assert warm == cold


class TestTable5FromStoredCacheStats:
    """Table 5 reads each run's production-cache result and touches
    the trace only to replay another configuration."""

    @pytest.fixture()
    def warm(self, fresh):
        table5.generate(FAST_PROGRAMS)
        runner.clear_cache()

    def test_default_reads_no_trace_section(self, warm, monkeypatch):
        asked = []
        load = RunCache.load

        def spy(self, key, trace=True):
            asked.append(trace)
            return load(self, key, trace)

        monkeypatch.setattr(RunCache, "load", spy)
        table5.generate(FAST_PROGRAMS)
        assert asked == [False] * len(FAST_PROGRAMS)
        memo = runner._memo(get_spec("faithful"))
        assert all(memo[name].trace is None
                   for name in FAST_PROGRAMS.values())
        assert runner.CACHE_EVENTS["disk_compute"] == 0

    def test_other_config_replays_trace(self, warm):
        direct = CacheConfig(capacity_words=8192, ways=1)
        rows = table5.generate(FAST_PROGRAMS, config=direct)
        assert runner.CACHE_EVENTS["disk_compute"] == 0
        assert runner.CACHE_EVENTS["trace_upgrade"] == 0
        for row, name in zip(rows, FAST_PROGRAMS.values()):
            run = runner.run_spec(name, "faithful", record_trace=True)
            (stats,) = simulate_many(run.trace, [direct])
            assert row.total == stats.hit_ratio
            assert row.ratios == {area: stats.area_hit_ratio(area)
                                  for area in AREA_ORDER}
        # The 1-way replay is not the production cache's numbers.
        production = table5.generate(FAST_PROGRAMS)
        assert [row.total for row in rows] != \
            [row.total for row in production]


def _entry_sections(path: pathlib.Path) -> tuple[int, int, int]:
    """(header, summary, trace) byte lengths of one stored entry."""
    with open(path, "rb") as fp:
        for _ in range(3):              # magic, key, spec label
            fp.readline()
        summary_len = int(fp.readline().split()[1])
        trace_len = int(fp.readline().split()[1])
        return fp.tell(), summary_len, trace_len


class TestEntrySections:
    """Integrity of the split (summary section + trace section) layout."""

    @pytest.fixture()
    def entry(self, fresh):
        runner.run_spec("lcp-1", "faithful")
        (path,) = RunCache().entries()
        runner.clear_cache()
        return path

    def test_trace_free_load_skips_trace(self, entry):
        summary = RunCache().load(entry.stem, trace=False)
        assert summary.trace_bytes is None
        traced = RunCache().load(entry.stem, trace=True)
        assert len(traced.to_collected_run().trace) == \
            _entry_sections(entry)[2] // 8

    def test_summary_flip_is_miss_either_way(self, entry):
        header, summary_len, _ = _entry_sections(entry)
        blob = bytearray(entry.read_bytes())
        blob[header + summary_len // 2] ^= 0xFF
        for trace in (False, True):
            entry.write_bytes(bytes(blob))
            assert RunCache().load(entry.stem, trace=trace) is None
            assert not entry.exists()

    def test_trace_flip_is_miss_on_traced_load(self, entry):
        header, summary_len, trace_len = _entry_sections(entry)
        assert trace_len > 0
        steps = RunCache().load(entry.stem, trace=False).stats.total_steps
        blob = bytearray(entry.read_bytes())
        blob[header + summary_len + trace_len // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        # The trace section is not read by a trace-free load ...
        assert RunCache().load(entry.stem, trace=False) is not None
        # ... but a traced load verifies it, discards and recomputes.
        rerun = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert runner.CACHE_EVENTS["disk_hit"] == 0
        assert runner.CACHE_EVENTS["disk_compute"] == 1
        assert rerun.steps == steps
        assert RunCache().load(entry.stem, trace=True) is not None

    def test_truncated_trace_section_is_miss_without_trace(self, entry):
        header, summary_len, trace_len = _entry_sections(entry)
        blob = entry.read_bytes()
        entry.write_bytes(blob[:header + summary_len + trace_len // 2])
        assert RunCache().load(entry.stem, trace=False) is None
        assert not entry.exists()
