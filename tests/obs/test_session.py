"""Session-level tests: disabled mode, determinism, cache purity."""

import io
import pickle

import pytest

from repro import obs
from repro.core.stats import StatsCollector
from repro.tools.collect import collect
from repro.workloads import get


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _collect(name: str):
    workload = get(name)
    return collect(workload.source, workload.goal,
                   all_solutions=workload.all_solutions,
                   record_trace=False,
                   setup_goals=workload.setup_goals)


class TestDisabledMode:
    def test_no_observation_and_plain_collector(self):
        assert not obs.enabled()
        run = _collect("nreverse")
        assert run.observation is None
        assert type(run.stats) is StatsCollector
        assert run.machine.mem.observer is None

    def test_enable_disable_toggle(self):
        with obs.observed():
            assert obs.enabled()
            with obs.observed():
                assert obs.enabled()
            assert obs.enabled()          # an inner exit keeps it on
        assert not obs.enabled()

    def test_observed_context_restores_state(self):
        assert not obs.enabled()
        with obs.observed(trace_capacity=128):
            assert obs.enabled()
            assert obs.begin_run("g").config.trace_capacity == 128
        assert not obs.enabled()
        assert obs.begin_run("g").config.trace_capacity != 128

    def test_enable_rejects_config_plus_overrides(self):
        from repro.obs.session import ObsConfig
        with pytest.raises(ValueError):
            with obs.observed(ObsConfig(), trace_capacity=1):
                pass
        assert not obs.enabled()


class TestObservedRun:
    def test_observed_counters_match_plain_run(self):
        plain = _collect("nreverse")
        with obs.observed():
            observed = _collect("nreverse")
        assert observed.stats.routine_counts == plain.stats.routine_counts
        assert observed.stats.mem_counts == plain.stats.mem_counts
        assert observed.stats.total_steps == plain.stats.total_steps
        assert observed.stats.inferences == plain.stats.inferences

    def test_traces_are_deterministic(self):
        def jsonl() -> str:
            with obs.observed():
                run = _collect("nreverse")
            buf = io.StringIO()
            run.observation.write_jsonl(buf)
            return buf.getvalue()

        first, second = jsonl(), jsonl()
        assert first == second            # byte-identical, not just similar

    def test_observation_has_all_tracks(self):
        with obs.observed():
            run = _collect("nreverse")
        tracer = run.observation.tracer
        assert tracer.events("calls"), "predicate slices missing"
        assert tracer.events("micro"), "sampled microroutine spans missing"
        assert tracer.events("stacks"), "stack reclaim events missing"
        assert tracer.events("cache"), "cache window samples missing"

    def test_stack_events_only_on_shrink(self):
        with obs.observed():
            run = _collect("nreverse")
        for event in run.observation.tracer.events("stacks"):
            assert event.ph == "C"
            assert event.name.startswith("top.")


class TestCachePurity:
    def test_summary_is_identical_with_and_without_obs(self):
        """The disk cache must store the same bytes either way."""
        plain = _collect("nreverse").to_summary()
        with obs.observed():
            observed = _collect("nreverse").to_summary()
        assert not hasattr(observed, "metrics")   # obs data has no slot
        assert type(observed.stats) is StatsCollector
        assert pickle.dumps(observed, protocol=pickle.HIGHEST_PROTOCOL) == \
            pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL)

    def test_rebuilt_run_has_no_observation(self):
        with obs.observed():
            summary = _collect("nreverse").to_summary()
        rebuilt = summary.to_collected_run()
        assert rebuilt.observation is None


class TestRecordingFootprint:
    """An observed run records compact raw data and detaches cleanly."""

    def test_stack_log_is_bounded(self, monkeypatch):
        from repro.obs.session import StackObserver

        pending = []
        on_settop = StackObserver.on_settop

        def spy(self, area, offset, old_top):
            on_settop(self, area, offset, old_top)
            pending.append(len(self.log))

        monkeypatch.setattr(StackObserver, "on_settop", spy)
        with obs.observed(trace_capacity=64):
            run = _collect("nreverse")
        assert pending and max(pending) == 64
        counters = run.observation.metrics_snapshot
        # Pinned: the counts an eagerly traced ring buffer reports.
        assert counters["psi.trace.dropped"]["value"] == 1421
        assert counters["psi.trace.events"]["value"] == 187
        assert run.observation.tracer.dropped == {"calls": 1,
                                                  "stacks": 1420}

    def test_observed_run_leaves_memory_system_bare(self):
        with obs.observed():
            run = _collect("nreverse")
        assert run.machine.mem._packed_append is None
        assert run.machine.mem.observer is None


class TestPredicateTables:
    """Attribution per predicate switch: slices open at a predicate's
    first emission, and the profile is read off per-predicate tables."""

    @staticmethod
    def _collector():
        from repro.obs.profile import MicroProfile
        from repro.obs.session import ObservedStatsCollector
        from repro.obs.trace import Tracer

        return ObservedStatsCollector(Tracer(), MicroProfile())

    @staticmethod
    def _routine():
        from repro.core.micro import routines_by_rid

        return routines_by_rid()[0]

    def test_store_without_emission_opens_no_slice(self):
        stats, routine = self._collector(), self._routine()
        stats.predicate = "a/1"
        stats.emit(routine)
        stats.predicate = "b/2"          # never emits
        stats.predicate = "a/1"
        stats.emit(routine, 2)
        stats.predicate = "c/3"
        stats.emit(routine)
        stats.close()
        step = routine.n_steps
        slices = [(e.name, e.ts, e.dur)
                  for e in stats.tracer.events("calls")]
        assert slices == [("a/1", 0, 3 * step), ("c/3", 3 * step, step)]
        assert stats.profile.by_predicate() == {"a/1": 3 * step,
                                                "c/3": step}

    def test_close_folds_tables_into_plain_counts(self):
        stats, routine = self._collector(), self._routine()
        reference = StatsCollector()
        for label in ("a/1", "b/2", "a/1"):
            for collector in (stats, reference):
                collector.predicate = label
                collector.emit(routine, 3)
        stats.close()
        assert stats.routine_counts == reference.routine_counts
        assert stats.total_steps == stats.now == reference.total_steps
        stats.predicate = "d/4"          # after close: counting only
        stats.emit(routine)
        assert stats.total_steps == reference.total_steps + routine.n_steps
