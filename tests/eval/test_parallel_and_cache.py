"""Parallel execution and persistent run-cache behaviour.

The contract of the whole pipeline: serial, process-parallel and
disk-cached execution render **byte-identical** tables and figures, and
a damaged or stale cache entry is detected and recomputed, never
trusted.  Fast workloads keep the whole module in seconds.
"""

import dataclasses
import pathlib

import pytest

from repro.baseline import WAMMachine
from repro.eval import (ablations, figure1, run_cache, runner, table1, table2,
                        table3, table4, table5)
from repro.eval.run_cache import RunCache, run_key
from repro.eval.specs import get_spec
from repro.eval.table4 import AREA_ORDER
from repro.memsys import Cache, CacheConfig, CacheResult
from repro.memsys import cache as cache_module
from repro.tools import pmms
from repro.tools.collect import RunSummary
from repro.tools.pmms import simulate_many
from repro.workloads import registry

FAST_PROGRAMS = {"bup": "bup-1", "lcp": "lcp-1", "lcp2": "lcp-2"}
FIGURE1_WORKLOAD = "lcp-2"
FIGURE1_CAPACITIES = (8, 256, 8192)
BASELINE_PROGRAMS = ["nreverse", "qsort", "lcp-1"]


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
                    spec_fingerprint="f")
        key = run_key(**base)
        assert key != run_key(**{**base, "goal": "q"})
        assert key != run_key(**{**base, "source": "p2."})
        assert key != run_key(**{**base, "setup_goals": ("s",)})
        assert key != run_key(**{**base, "all_solutions": True})
        assert key != run_key(**{**base, "spec_fingerprint": "f2"})
        assert key == run_key(**base)

    def test_fresh_runs_always_record_no_upgrade_needed(self, fresh):
        """Real executions record the trace unconditionally, so a later
        ``record_trace=True`` caller is served from the memory tier
        without a second execution."""
        runner.set_disk_cache(False)
        first = runner.run_spec("lcp-1", "faithful", record_trace=False)
        assert first.trace is not None
        upgraded = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert upgraded is first
        assert runner.CACHE_EVENTS["memory_hit"] == 1

    def test_trace_free_memo_entry_reruns_without_disk(self, fresh):
        """With the disk tier off, a memory-tier entry without a trace
        (e.g. loaded trace-free before the tier was switched off) cannot
        serve a ``record_trace=True`` caller: the workload runs again
        and the caller gets a traced run."""
        runner.set_disk_cache(False)
        first = runner.run_spec("lcp-1", "faithful")
        runner._memo(get_spec("faithful"))["lcp-1"] = dataclasses.replace(
            first, trace=None)
        rerun = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert rerun.trace is not None
        assert rerun is not first
        assert runner._memo(get_spec("faithful"))["lcp-1"] is rerun

    def test_disk_cache_stores_traced_variant(self, fresh):
        """A no-trace request still persists (and later serves) the trace."""
        runner.run_spec("lcp-1", "faithful", record_trace=False)
        runner.clear_cache()
        run = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert runner.CACHE_EVENTS["disk_hit"] == 1
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

    def test_trace_free_memo_entry_served_trace_from_disk(self, fresh):
        """table2 leaves trace-free runs in the memo; Figure 1 then
        replays one of them and gets its trace from the entry's trace
        section — a disk hit, no re-execution."""
        def figure():
            return figure1.render(figure1.generate(
                FIGURE1_WORKLOAD, capacities=FIGURE1_CAPACITIES))

        table2.generate(FAST_PROGRAMS)
        cold = figure()
        runner.clear_cache()
        table2.generate(FAST_PROGRAMS)
        warm = figure()
        assert FIGURE1_WORKLOAD in FAST_PROGRAMS.values()
        assert runner.CACHE_EVENTS["disk_compute"] == 0
        assert runner.CACHE_EVENTS["disk_hit"] == len(FAST_PROGRAMS) + 1
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


class TestWarmRunsAreChecked:
    """A run loaded from the disk tier is checked against the workload's
    ``expected`` results on every path that loads it."""

    @pytest.fixture()
    def wrong_expected(self, fresh, monkeypatch):
        runner.run_spec("bup-1", "faithful")        # warm the disk tier
        runner.clear_cache()
        workload = registry.get("bup-1")
        monkeypatch.setitem(registry._REGISTRY, "bup-1", dataclasses.replace(
            workload, expected={"parses_min": 10**6}))

    def test_run_spec_rejects_warm_run(self, wrong_expected):
        with pytest.raises(RuntimeError, match="bup-1 produced wrong results"):
            runner.run_spec("bup-1", "faithful")

    def test_run_many_rejects_warm_run(self, wrong_expected):
        with pytest.raises(RuntimeError, match="bup-1 produced wrong results"):
            runner.run_many(["bup-1", "lcp-1"], jobs=2)
        assert runner.CACHE_EVENTS["disk_hit:faithful"] == 1


class TestBaselineDiskTier:
    """Baseline (WAM) runs take the same memo → run cache → execute
    path as PSI runs."""

    def test_warm_table1_executes_no_wam_run(self, fresh, monkeypatch):
        cold = table1.generate(BASELINE_PROGRAMS)
        assert runner.CACHE_EVENTS["disk_compute:baseline"] == \
            len(BASELINE_PROGRAMS)
        runner.clear_cache()

        def no_wam(self, text):
            raise AssertionError("a warm table1 executed a WAM run")

        monkeypatch.setattr(WAMMachine, "consult", no_wam)
        assert table1.generate(BASELINE_PROGRAMS) == cold
        assert runner.CACHE_EVENTS["disk_compute:baseline"] == 0
        assert runner.CACHE_EVENTS["disk_hit:baseline"] == \
            len(BASELINE_PROGRAMS)
        assert RunCache().info_by_spec()["baseline"]["entries"] == \
            len(BASELINE_PROGRAMS)

    def test_trace_request_never_upgrades(self, fresh):
        runner.set_disk_cache(False)
        first = runner.run_spec("lcp-1", "baseline", record_trace=True)
        assert runner.run_spec("lcp-1", "baseline", record_trace=True) \
            is first
        assert runner.CACHE_EVENTS["memory_hit"] == 1

    def test_run_many_parallel_matches_serial(self, fresh):
        parallel = runner.run_many(BASELINE_PROGRAMS, jobs=2, spec="baseline")
        runner.clear_cache()
        runner.set_disk_cache(False)
        serial = runner.run_many(BASELINE_PROGRAMS, spec="baseline")
        assert list(parallel) == list(serial) == BASELINE_PROGRAMS
        for name in BASELINE_PROGRAMS:
            assert parallel[name].answers == serial[name].answers
            assert parallel[name].stats.total_instructions == \
                serial[name].stats.total_instructions

    def test_code_version_covers_baseline(self, tmp_path, monkeypatch):
        import shutil

        import repro

        source = pathlib.Path(repro.__file__).parent
        copy = tmp_path / "repro"
        for package in run_cache._CODE_PACKAGES:
            shutil.copytree(source / package, copy / package)
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        monkeypatch.setattr(run_cache, "_code_version", None)
        before = run_cache.code_version()
        with open(copy / "baseline" / "machine.py", "a") as fp:
            fp.write("# edited\n")
        monkeypatch.setattr(run_cache, "_code_version", None)
        assert run_cache.code_version() != before


@pytest.mark.slow
class TestSingleReplayDecision:
    """Figure 1 and the ablations answer the production geometry from
    each run's stored result and never count the trace again."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        figure1.generate()
        ablations.generate()
        runner.clear_cache()            # warm disk, empty memo
        calls = []
        replay = Cache.access_many_packed

        def counted(self, data, totals=None):
            calls.append(self.config)
            return replay(self, data, totals)

        def no_count(data):
            raise AssertionError("a study made a counting pass")

        monkeypatch.setattr(Cache, "access_many_packed", counted)
        monkeypatch.setattr(cache_module, "count_entries_packed", no_count)
        monkeypatch.setattr(pmms, "count_entries_packed", no_count)
        return calls

    def test_figure1_replays_ten_of_eleven(self, passes):
        figure1.generate()
        assert len(passes) == 10
        assert CacheConfig() not in passes

    def test_ablations_replay_four_of_eight(self, passes):
        ablations.generate()
        assert len(passes) == 4
        assert CacheConfig() not in passes


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

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_baseline_entry_recomputed(self, fresh, damage, caplog):
        first = runner.run_spec("lcp-1", "baseline")
        (path,) = RunCache().entries()
        header, summary_len, trace_len = _entry_sections(path)
        assert trace_len == 0
        blob = bytearray(path.read_bytes())
        if damage == "flip":
            blob[header + summary_len // 2] ^= 0xFF
        else:
            del blob[header + summary_len // 2:]
        path.write_bytes(bytes(blob))
        runner.clear_cache()
        with caplog.at_level("WARNING", logger="repro.eval.run_cache"):
            rerun = runner.run_spec("lcp-1", "baseline")
        assert any("discarding invalid entry" in message
                   for message in caplog.messages)
        assert runner.CACHE_EVENTS["disk_compute:baseline"] == 1
        assert rerun.answers == first.answers
        assert rerun.stats.total_instructions == \
            first.stats.total_instructions
        assert RunCache().load(path.stem) is not None
