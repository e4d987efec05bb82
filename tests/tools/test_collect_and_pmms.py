"""Integration tests for COLLECT, MAP and PMMS."""

import pytest

from repro.core.memory import TraceRecorder
from repro.core.micro import BranchOp, CacheCmd, Module, WFMode
from repro.memsys import CacheConfig, WritePolicy
from repro.tools import (
    branch_analysis,
    capacity_sweep,
    collect,
    compare_associativity,
    compare_write_policy,
    module_analysis,
    performance_improvement,
    routine_histogram,
    simulate,
    wf_analysis,
)

PROGRAM = """
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
"""


@pytest.fixture(scope="module")
def run():
    return collect(PROGRAM, "nrev([1,2,3,4,5,6,7,8,9,10], R)")


class TestCollect:
    def test_success_and_counts(self, run):
        assert run.succeeded
        assert run.steps > 0
        assert run.stats.inferences > 50

    def test_trace_recorded(self, run):
        assert run.trace is not None
        assert len(run.trace) == run.stats.total_mem_accesses

    def test_trace_roundtrip(self, run):
        entries = list(run.trace.entries())
        assert all(isinstance(cmd, CacheCmd) for cmd, _ in entries[:10])

    def test_online_cache_attached(self, run):
        assert run.cache is not None
        assert run.cache.stats.accesses == run.stats.total_mem_accesses

    def test_timing_positive(self, run):
        assert run.time_ms > 0
        assert run.lips > 0

    def test_setup_goals_excluded(self):
        with_setup = collect(PROGRAM + "\nsetup. ", "nrev([1,2], R)",
                             setup_goals=("setup",))
        assert with_setup.succeeded

    def test_failed_setup_raises(self):
        with pytest.raises(RuntimeError):
            collect(PROGRAM, "nrev([1], R)", setup_goals=("fail",))

    def test_collector_totals_match_trace_totals(self, run):
        """Billing and trace notification are paired at every memory
        site, so the totals ``collect`` hands the deferred cache replay
        (derived from the collector) must equal a counting pass over
        the packed trace — the invariant the replay shortcut rests on."""
        from repro.memsys.cache import count_entries_packed
        from repro.tools.collect import _totals_from_stats

        assert _totals_from_stats(run.stats) == count_entries_packed(
            run.trace.data)

    def test_listeners_detached_after_run(self, run):
        """The trace sink is cleared once the run is collected."""
        assert run.machine.mem._packed_append is None


class TestMap:
    def test_module_analysis_sums_to_100(self, run):
        ratios = module_analysis(run.stats)
        assert sum(ratios.values()) == pytest.approx(100.0)
        assert ratios[Module.UNIFY] > 0

    def test_branch_analysis_sums_to_100(self, run):
        rows = branch_analysis(run.stats)
        assert sum(r.percent for r in rows) == pytest.approx(100.0)
        assert {r.branch_type for r in rows} == {1, 2, 3}

    def test_wf_analysis_covers_all_modes(self, run):
        rows = wf_analysis(run.stats)
        assert {r.mode for r in rows} == set(WFMode)

    def test_routine_histogram_sorted(self, run):
        rows = routine_histogram(run.stats, top=10)
        counts = [r[2] for r in rows]
        assert counts == sorted(counts, reverse=True)


class TestPMMS:
    def test_simulate_counts_all_accesses(self, run):
        stats = simulate(run.trace)
        assert stats.accesses == len(run.trace)

    def test_offline_matches_online(self, run):
        """Replaying the trace must agree exactly with the online cache."""
        stats = simulate(run.trace, CacheConfig())
        assert stats.hits == run.cache.stats.hits
        assert stats.misses == run.cache.stats.misses
        assert stats.writebacks == run.cache.stats.writebacks

    def test_capacity_sweep_monotone_hit_trend(self, run):
        points = capacity_sweep(run.trace, run.steps, (8, 128, 8192))
        assert points[0].hit_ratio <= points[-1].hit_ratio + 1.0
        assert points[-1].hit_ratio > 90.0

    def test_improvement_positive(self, run):
        improvement, stats = performance_improvement(
            run.trace, run.steps, CacheConfig())
        assert improvement > 0
        assert stats.hit_ratio > 90.0

    def test_store_in_beats_store_through(self, run):
        result = compare_write_policy(run.trace, run.steps)
        assert result.improvement_a > result.improvement_b

    def test_two_sets_at_least_one_set(self, run):
        result = compare_associativity(run.trace, run.steps,
                                       set_capacity_words=512)
        assert result.improvement_a >= result.improvement_b - 1.0

    def test_empty_trace(self):
        stats = simulate(TraceRecorder())
        assert stats.accesses == 0
        assert stats.hit_ratio == 100.0
