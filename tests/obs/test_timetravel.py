"""Time-travel state reconstruction: checkpointed seek == cold replay.

The contract that makes the explorer trustworthy: the state rebuilt
from the nearest checkpoint plus a short replay must be *identical* —
full snapshot equality, cache LRU order included — to a cold replay of
the whole prefix.  Checked here for real workload traces at stride
boundaries, N=0 and N=last, plus targeted synthetic-trace tests of the
reclaim/backtrack inference and the differential-mode pinpointing.
"""

import pytest

from repro.core.machine import CONTROL_FRAME_WORDS
from repro.core.memory import AREA_SHIFT, Area
from repro.obs.timetravel import (
    AUTO_TARGET_CHECKPOINTS,
    Divergence,
    ReplayState,
    TraceExplorer,
    auto_stride,
    first_divergence,
)

WORKLOADS = ("nreverse", "qsort", "queens-one")


def _packed(code: int, area: int, offset: int) -> int:
    return (((area << AREA_SHIFT) | offset) << 2) | code


@pytest.fixture(scope="module")
def explorers():
    """One built explorer (plus its run) per workload, shared module-wide."""
    from repro.eval.runner import run_spec

    built = {}
    for name in WORKLOADS:
        run = run_spec(name, "faithful", record_trace=True)
        built[name] = (run, TraceExplorer(run.trace))
    return built


class TestAutoStride:
    def test_minimum_is_256(self):
        assert auto_stride(0) == 256
        assert auto_stride(10_000) == 256

    def test_power_of_two_and_bounded_count(self):
        for n in (10_000, 128_671, 570_327, 5_000_000):
            stride = auto_stride(n)
            assert stride & (stride - 1) == 0
            assert n // stride <= AUTO_TARGET_CHECKPOINTS


class TestSeekEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_checkpointed_seek_matches_cold_replay(self, explorers, name):
        _, explorer = explorers[name]
        n, stride = explorer.n_steps, explorer.stride
        assert n > stride, "workload trace too short to exercise seeking"
        targets = {0, 1, stride - 1, stride, stride + 1,
                   3 * stride, n // 2, n - 1, n}
        for step in sorted(targets):
            assert explorer.state_at(step) == explorer.cold_state_at(step), \
                f"{name}: seek to microstep {step} diverged from cold replay"

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_final_state_is_the_full_replay(self, explorers, name):
        _, explorer = explorers[name]
        assert explorer.final == explorer.cold_state_at(explorer.n_steps)
        assert explorer.final.step == explorer.n_steps

    def test_seek_ends_are_step_zero_and_the_final_state(self, explorers):
        _, explorer = explorers["nreverse"]
        assert explorer.state_at(0).step == 0
        last = explorer.state_at(explorer.n_steps)
        assert last.step == explorer.n_steps
        assert last.registers == explorer.final.registers
        assert last.backtracks == explorer.final.backtracks
        assert last.cache.stats.hits == explorer.final.cache.stats.hits

    def test_explicit_stride_changes_checkpoints_not_states(self, explorers):
        run, auto = explorers["nreverse"]
        coarse = TraceExplorer(run.trace, stride=4096)
        assert len(coarse.checkpoint_steps) < len(auto.checkpoint_steps)
        for step in (0, 5000, auto.n_steps):
            assert coarse.state_at(step) == auto.state_at(step)

    def test_seek_out_of_range(self, explorers):
        _, explorer = explorers["nreverse"]
        with pytest.raises(IndexError):
            explorer.state_at(explorer.n_steps + 1)
        with pytest.raises(IndexError):
            explorer.cold_state_at(-1)


class TestObservedExtents:
    def test_reads_and_writes_raise_top(self):
        state = ReplayState(with_cache=False)
        state.apply(_packed(0, Area.HEAP, 9))       # READ heap[9]
        assert state.areas[Area.HEAP].top == 10
        state.apply(_packed(1, Area.HEAP, 4))       # WRITE below top
        assert state.areas[Area.HEAP].top == 10
        assert state.registers["HP"] == 10

    def test_write_stack_below_top_is_a_reclaim(self):
        state = ReplayState(with_cache=False)
        for offset in range(6):
            state.apply(_packed(2, Area.TRAIL, offset))
        state.apply(_packed(2, Area.TRAIL, 2))      # push below top: settop
        trail = state.areas[Area.TRAIL]
        assert trail.reclaims == 1
        assert trail.reclaimed_words == 6 - 2
        assert trail.top == 3
        assert trail.high_water == 6
        assert state.backtracks == 0                # trail, not control

    def test_control_reclaim_counts_as_backtrack(self):
        state = ReplayState(with_cache=False)
        for offset in range(2 * CONTROL_FRAME_WORDS):
            state.apply(_packed(2, Area.CONTROL, offset))
        assert state.control_depth == 2
        assert state.control_frames == [0, CONTROL_FRAME_WORDS]
        state.apply(_packed(2, Area.CONTROL, 0))    # pop back to frame 0
        assert state.backtracks == 1
        assert state.control_depth == 0             # 1 word of a new frame

    def test_snapshot_roundtrip_preserves_future_behaviour(self):
        entries = [_packed(code, area, offset)
                   for offset in range(40)
                   for area, code in ((Area.HEAP, 0), (Area.GLOBAL, 2),
                                      (Area.CONTROL, 2))]
        half = len(entries) // 2
        state = ReplayState()
        state.apply_many(entries[:half])
        resumed = ReplayState.from_snapshot(state.snapshot())
        assert resumed == state
        state.apply_many(entries[half:])
        resumed.apply_many(entries[half:])
        assert resumed == state                      # LRU order survived


class TestTimeline:
    def test_timeline_covers_the_whole_trace(self, explorers):
        _, explorer = explorers["nreverse"]
        points = explorer.timeline
        assert points[-1].step == explorer.n_steps
        assert sum(sum(p.area_accesses) for p in points) == explorer.n_steps
        assert sum(p.backtracks for p in points) == explorer.final.backtracks
        final_stats = explorer.final.cache.stats
        assert sum(p.hits for p in points) == final_stats.hits
        assert sum(p.misses for p in points) == final_stats.misses

    def test_empty_trace(self):
        explorer = TraceExplorer([])
        assert explorer.n_steps == 0
        assert explorer.timeline == []
        assert explorer.state_at(0) == explorer.final


class TestFirstDivergence:
    ANSWERS = ((("X", "a"),), (("X", "b"),), (("X", "c"),))
    MARKS = (100, 220, 300)

    def test_agreement_is_none(self):
        assert first_divergence("w", self.ANSWERS, self.MARKS,
                                self.ANSWERS, 400) is None

    def test_diverging_answer_pinpoints_its_mark(self):
        other = (self.ANSWERS[0], (("X", "WRONG"),), self.ANSWERS[2])
        div = first_divergence("w", self.ANSWERS, self.MARKS, other, 400)
        assert isinstance(div, Divergence)
        assert (div.kind, div.index, div.microstep) == ("answer", 1, 220)
        assert "microstep 220/400" in div.describe()

    def test_psi_missing_answers(self):
        div = first_divergence("w", self.ANSWERS[:2], self.MARKS[:2],
                               self.ANSWERS, 400)
        assert (div.kind, div.index) == ("psi_missing", 2)

    def test_other_missing_answers(self):
        div = first_divergence("w", self.ANSWERS, self.MARKS,
                               self.ANSWERS[:1], 400)
        assert (div.kind, div.index, div.microstep) == \
            ("other_missing", 1, 220)

    def test_no_marks_falls_back_to_total(self):
        other = ((("X", "WRONG"),),)
        div = first_divergence("w", self.ANSWERS[:1], (), other, 400)
        assert div.microstep == 400


class TestAnswerMarks:
    def test_marks_align_with_answers_and_trace(self, explorers):
        for name in WORKLOADS:
            run, explorer = explorers[name]
            assert len(run.answer_marks) == len(run.answers)
            assert all(0 < mark <= explorer.n_steps
                       for mark in run.answer_marks)
            assert list(run.answer_marks) == sorted(run.answer_marks)

    def test_marks_survive_the_summary_roundtrip(self, explorers):
        run, _ = explorers["nreverse"]
        assert run.to_summary().to_collected_run().answer_marks \
            == run.answer_marks
