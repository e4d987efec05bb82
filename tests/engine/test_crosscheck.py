"""The differential crosscheck oracle and its CLI/registry integration."""

import json

import pytest

from repro.engine.crosscheck import (
    CrosscheckReport,
    WorkloadCheck,
    crosscheck,
    crosscheck_workload_specs,
)
from repro.workloads import all_workloads, shared_workloads


class TestReportShape:
    def test_report_accessors(self):
        report = CrosscheckReport(checks=[
            WorkloadCheck("a", ok=True),
            WorkloadCheck("b", ok=False, detail="boom"),
        ])
        assert not report.ok
        assert [c.name for c in report.divergences] == ["b"]
        rendered = report.render()
        assert "DIVERGED" in rendered and "boom" in rendered

    def test_to_dict_is_json_serialisable(self):
        report = crosscheck(["nreverse"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["checked"] == 1
        assert payload["workloads"][0]["name"] == "nreverse"
        assert payload["specs"] == ["faithful", "baseline"]

    def test_empty_report_is_ok(self):
        assert CrosscheckReport().ok


class TestSharedWorkloads:
    def test_shared_excludes_psi_only(self):
        shared = {w.name for w in shared_workloads()}
        for name, workload in all_workloads().items():
            assert (name in shared) == (not workload.psi_only)

    def test_window_workloads_are_psi_only(self):
        shared = {w.name for w in shared_workloads()}
        assert not {"window-1", "window-2", "window-3"} & shared


class TestCrosscheckExecution:
    def test_single_workload_agrees(self):
        check = crosscheck_workload_specs("qsort", "faithful", "baseline")
        assert check.ok, check.detail
        assert check.psi_answers == check.baseline_answers
        assert check.psi_answers  # answers actually captured

    def test_divergence_detected(self, monkeypatch):
        # Forge a disagreement by corrupting the baseline answers.
        from repro.eval import runner

        real = runner.run_spec

        def forged(name, spec=None, record_trace=True):
            result = real(name, spec, record_trace=record_trace)
            if isinstance(result, runner.BaselineRun):
                result = runner.BaselineRun(
                    stats=result.stats,
                    answers=((("X", "wrong"),),),
                    counters=result.counters)
            return result

        monkeypatch.setattr(runner, "run_spec", forged)
        check = crosscheck_workload_specs("nreverse", "faithful", "baseline")
        assert not check.ok
        assert "baseline only" in check.detail
        assert "faithful only" in check.detail

    def test_engine_crash_is_a_divergence(self, monkeypatch):
        from repro.eval import runner

        def exploding(name, spec=None, record_trace=True):
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(runner, "run_spec", exploding)
        check = crosscheck_workload_specs("nreverse", "faithful", "baseline")
        assert not check.ok
        assert "engine on fire" in check.detail


@pytest.mark.slow
class TestFullRegistry:
    def test_every_shared_workload_crosschecks(self):
        """The acceptance sweep: zero divergences across the registry.

        Served from the run cache when warm; the CI crosscheck job runs
        the same sweep through ``psi-eval crosscheck --all``.
        """
        report = crosscheck()
        assert {c.name for c in report.checks} == \
            {w.name for w in shared_workloads()}
        assert report.ok, report.render()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(all_workloads()))
class TestIndexedRegistryEquivalence:
    """The clause-indexed PSI configuration must reproduce the faithful
    answer multisets (and side-effect counters) on *every* registry
    workload — ``psi_only`` ones included, since both runs are PSI.
    The CI crosscheck job runs the same sweep through
    ``psi-eval crosscheck --all --specs faithful,indexed``."""

    def test_indexed_agrees_with_faithful(self, name):
        check = crosscheck_workload_specs(name, "indexed", "faithful")
        assert check.ok, f"{name}: {check.detail}"
        assert check.psi_answers  # indexed answers actually captured


#: The applications the paper calls "structure-and-backtracking" (BUP,
#: LCP, the harmonizer, the 8-puzzle and N-queens), where clause
#: selection, not arithmetic, dominates.  Deterministic list and
#: arithmetic programs (nreverse, qsort, the Lisp trio) are left out:
#: indexing barely moves them, as the paper's §3.1 predicts.
BACKTRACKING_HEAVY = (
    "bup-1", "bup-2", "bup-3", "bup-eval",
    "lcp-1", "lcp-2", "lcp-3", "lcp-eval",
    "harmonizer-1", "harmonizer-2", "harmonizer-3",
    "puzzle8", "queens-one", "queens-all",
)


@pytest.mark.slow
class TestIndexedStepFloor:
    def test_indexed_geomean_step_ratio_floor(self):
        """Clause indexing must keep paying on the backtracking-heavy
        workloads: a geomean of at least 1.15x fewer modelled
        microsteps than the faithful machine.  Steps are deterministic,
        so the floor is exact, not a timing.  The runs come from the
        session's run cache, filled by the registry sweep above."""
        report = crosscheck(BACKTRACKING_HEAVY, specs=("faithful", "indexed"))
        assert report.ok, report.render()
        assert report.geomean_step_ratio >= 1.15, report.render()


class TestStepColumns:
    def test_psi_pair_reports_steps_and_counters(self):
        report = crosscheck(["bup-1"], specs=("faithful", "indexed"))
        check = report.checks[0]
        assert check.first.steps > check.second.steps
        rendered = report.render()
        for column in ("faithful", "indexed", "steps×", "time×", "hits",
                       "miss", "CPs avoided", "geomean step ratio"):
            assert column in rendered
        assert f"{check.first.steps:,}" in rendered
        payload = json.loads(json.dumps(report.to_dict()))
        row = payload["workloads"][0]
        assert row["steps"] == [check.first.steps, check.second.steps]
        assert row["step_ratio"] == round(check.step_ratio, 4)
        assert row["time_ratio"] == round(check.time_ratio, 4)
        index = check.second.index_stats
        assert row["choicepoints_avoided"] == index["choicepoints_avoided"] > 0
        assert row["index_hits"] == index["index_hits"]
        assert row["index_misses"] == index["index_misses"]
        assert payload["geomean_step_ratio"] == round(check.step_ratio, 4)

    def test_jobs_prewarms_both_specs(self, monkeypatch):
        from repro.eval import runner

        warmed = []
        monkeypatch.setattr(
            runner, "run_many",
            lambda names, jobs, record_trace, spec:
                warmed.append((spec.name, list(names), jobs)))
        report = crosscheck(["nreverse"], specs=("faithful", "indexed"),
                            jobs=2)
        assert report.ok
        assert warmed == [("faithful", ["nreverse"], 2),
                          ("indexed", ["nreverse"], 2)]

    def test_faithful_vs_baseline_has_no_step_columns(self):
        report = crosscheck(["bup-1"])
        assert report.render().splitlines() == [
            "differential crosscheck: PSI vs DEC baseline", "",
            "  bup-1  ok", "",
            "1 workload(s) checked, zero answer divergences"]
        payload = report.to_dict()
        assert "geomean_step_ratio" not in payload
        assert set(payload["workloads"][0]) == {
            "name", "ok", "detail", "psi_answers", "baseline_answers"}


class TestDivergenceReproRecipe:
    def test_render_prints_the_debug_diff_command(self):
        report = CrosscheckReport(checks=[
            WorkloadCheck("ok-one", ok=True),
            WorkloadCheck("bad-one", ok=False, detail="answers differ"),
            WorkloadCheck("bad-two", ok=False, detail="counters differ"),
        ])
        rendered = report.render()
        assert "psi-eval debug --diff bad-one" in rendered
        assert "psi-eval debug --diff bad-two" in rendered
        assert "psi-eval debug --diff ok-one" not in rendered

    def test_clean_report_has_no_recipe(self):
        report = CrosscheckReport(checks=[WorkloadCheck("a", ok=True)])
        assert "psi-eval debug" not in report.render()

    def test_to_dict_lists_divergent_names(self):
        report = CrosscheckReport(checks=[
            WorkloadCheck("a", ok=True),
            WorkloadCheck("b", ok=False, detail="boom"),
        ])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["divergent"] == ["b"]
        assert payload["interrupted"] is False
        assert payload["skipped"] == []


class TestInterruptedSweep:
    def test_partial_report_survives_keyboard_interrupt(self, monkeypatch):
        import repro.engine.crosscheck as crosscheck_module

        def check_then_interrupt(name, spec_a, spec_b):
            if name == "second":
                raise KeyboardInterrupt
            return WorkloadCheck(name, ok=(name != "first"),
                                 detail="" if name != "first" else "boom")

        monkeypatch.setattr(crosscheck_module, "crosscheck_workload_specs",
                            check_then_interrupt)
        report = crosscheck(["first", "second", "third"])
        assert report.interrupted
        assert not report.ok
        assert [c.name for c in report.checks] == ["first"]
        assert report.skipped == ["second", "third"]
        assert report.divergent_names == ["first"]
        payload = report.to_dict()
        assert payload["interrupted"] is True
        assert payload["skipped"] == ["second", "third"]
        assert "INTERRUPTED" in report.render()

    def test_interrupted_but_clean_sweep_is_still_not_ok(self):
        report = CrosscheckReport(checks=[WorkloadCheck("a", ok=True)],
                                  interrupted=True, skipped=["b"])
        assert not report.ok
        assert report.to_dict()["divergent"] == []

    def test_cli_writes_the_report_json_when_interrupted(self, tmp_path,
                                                         monkeypatch,
                                                         capsys):
        import repro.engine.crosscheck as crosscheck_module

        from repro.eval.cli import main

        def interrupt_on_second(name, spec_a, spec_b):
            if name != "nreverse":
                raise KeyboardInterrupt
            return WorkloadCheck(name, ok=True)

        monkeypatch.setattr(crosscheck_module, "crosscheck_workload_specs",
                            interrupt_on_second)
        out = tmp_path / "crosscheck.json"
        status = main(["crosscheck", "nreverse", "qsort",
                       "--report", str(out)])
        assert status == 1
        payload = json.loads(out.read_text())
        assert payload["interrupted"] is True
        assert payload["checked"] == 1
        assert payload["skipped"] == ["qsort"]
