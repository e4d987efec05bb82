"""Profiler tests: exact attribution, collapsed stacks, top table."""

import io

from repro.core.micro import Module
from repro.obs.profile import MicroProfile


class TestAttribution:
    def test_add_accumulates(self):
        profile = MicroProfile()
        profile.add("a/1", Module.CONTROL, 10)
        profile.add("a/1", Module.CONTROL, 5)
        profile.add("a/1", Module.UNIFY, 3)
        assert profile.total_steps == 18
        assert profile.by_predicate()["a/1"] == 18
        assert profile.by_module()[Module.CONTROL] == 15

    def test_merge(self):
        a, b = MicroProfile(), MicroProfile()
        a.add("p/1", Module.CONTROL, 1)
        b.add("p/1", Module.CONTROL, 2)
        b.add("q/2", Module.UNIFY, 3)
        a.merge(b)
        assert a.samples[("p/1", Module.CONTROL)] == 3
        assert a.total_steps == 6


class TestCollapsedStacks:
    def test_format_and_determinism(self):
        profile = MicroProfile()
        profile.add("b/2", Module.UNIFY, 7)
        profile.add("a/1", Module.CONTROL, 3)
        lines = profile.collapsed_stacks()
        assert lines == ["a/1;control 3", "b/2;unify 7"]   # sorted
        assert profile.collapsed_stacks(root="run") == [
            "run;a/1;control 3", "run;b/2;unify 7"]

    def test_zero_sample_lines_omitted(self):
        profile = MicroProfile()
        profile.add("a/1", Module.CONTROL, 0)
        assert profile.collapsed_stacks() == []

    def test_write_collapsed(self):
        profile = MicroProfile()
        profile.add("a/1", Module.CONTROL, 3)
        buf = io.StringIO()
        assert profile.write_collapsed(buf) == 1
        assert buf.getvalue() == "a/1;control 3\n"


class TestTopTable:
    def test_totals_row_and_other(self):
        profile = MicroProfile()
        for i in range(5):
            profile.add(f"p{i}/1", Module.CONTROL, 10 * (i + 1))
        table = profile.top_table(top=2)
        assert "(other)" in table
        assert table.splitlines()[-1].split()[:2] == ["total", "150"]

    def test_empty(self):
        assert MicroProfile().top_table() == "no samples"

    def test_module_split_breaks_ties_in_module_order(self):
        profile = MicroProfile()
        profile.add("p/1", Module.BUILT, 4)
        profile.add("p/1", Module.GET_ARG, 3)
        profile.add("p/1", Module.TRAIL, 3)
        row = profile.top_table().splitlines()[1]
        assert row.endswith("built 40%, trail 30%, get_arg 30%")


def test_observed_run_attribution_sums_to_total_steps():
    """The tentpole invariant: profile total == stats total, exactly."""
    from repro import obs
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get("qsort")
    with obs.observed():
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False,
                      setup_goals=workload.setup_goals)
    obs.reset()
    observation = run.observation
    assert observation.profile.total_steps == run.stats.total_steps
    assert observation.total_steps == run.stats.total_steps
    # Collapsed stacks carry the same total.
    total = sum(int(line.rsplit(" ", 1)[1])
                for line in observation.profile.collapsed_stacks())
    assert total == run.stats.total_steps
    # Real predicates dominate; the startup placeholder is negligible.
    by_predicate = observation.profile.by_predicate()
    assert by_predicate.most_common(1)[0][0].endswith(tuple("0123456789"))
