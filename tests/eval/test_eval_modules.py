"""Tests for the evaluation harness (fast workloads only).

The full-table regeneration and its paper-shape checks live in
tests/paper/; these tests check the plumbing: caching, row
construction, rendering and the CLI, using the quick benchmarks so the
whole module runs in seconds.
"""

import pytest

from repro.core.memory import Area
from repro.core.micro import BranchOp, Module
from repro.eval import figure1, paper_data, runner, table1, table2, table3, table4, table5, table6, table7
from repro.eval.report import format_table


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


FAST = {"window": "bup-1", "puzzle8": "lcp-1", "bup": "bup-1",
        "harmonizer": "lcp-2"}


class TestRunner:
    def test_run_spec_caches(self):
        first = runner.run_spec("lcp-1", "faithful")
        second = runner.run_spec("lcp-1", "faithful")
        assert first is second

    def test_trace_upgrade_reruns(self):
        light = runner.run_spec("lcp-1", "faithful", record_trace=False)
        with_trace = runner.run_spec("lcp-1", "faithful", record_trace=True)
        assert with_trace.trace is not None

    def test_run_spec_baseline(self):
        stats = runner.run_spec("lcp-1", "baseline")
        assert stats.time_ms > 0

    def test_psi_only_workload_rejected_on_baseline(self):
        with pytest.raises(ValueError):
            runner.run_spec("window-1", "baseline")


class TestTable1:
    def test_subset_generation(self):
        rows = table1.generate(["nreverse", "lcp-1"])
        assert len(rows) == 2
        for row in rows:
            assert row.psi_ms > 0 and row.dec_ms > 0
            assert row.ratio == pytest.approx(row.dec_ms / row.psi_ms)
        text = table1.render(rows)
        assert "nreverse" in text and "DEC/PSI" in text

    def test_winner_agreement_logic(self):
        assert table1._winner_agrees(1.2, 1.3)
        assert not table1._winner_agrees(0.8, 1.3)
        assert table1._winner_agrees(1.04, 0.96)          # near tie


class TestProfileTables:
    def test_table2_rows(self):
        data = table2.generate(FAST)
        assert data.programs == tuple(FAST)
        for program in FAST:
            assert sum(data[program, m.value] for m in Module) == \
                pytest.approx(100.0)
        assert "program" in table2.render(data)

    def test_table3_rows(self):
        data = table3.generate({"bup": "bup-1"})
        total = data["bup", "total"]
        assert total == pytest.approx(data["bup", "read"]
                                      + data["bup", "write_total"])
        assert 0 < total < 100
        assert "write-stack" in table3.render(data)

    def test_table4_rows(self):
        data = table4.generate({"bup": "bup-1"})
        total = sum(data["bup", area.label] for area in Area)
        assert total == pytest.approx(100.0, abs=0.5)
        table4.render(data)

    def test_table5_rows(self):
        data = table5.generate({"bup": "bup-1"})
        for area in (Area.HEAP, Area.GLOBAL):
            assert 0 < data["bup", area.label] <= 100.0
        table5.render(data)

    def test_table6(self):
        data = table6.generate({"bup": "bup-1"})
        assert {col for row, col in data if row == "total"} == \
            {"source1.steps", "source2.steps", "dest.steps"}
        assert 0 < data["direct addressing", "share"] <= 100
        text = table6.render(data)
        assert "@WFAR1" in text

    def test_table7(self):
        data = table7.generate({"bup": "bup-1"})
        assert sum(data[op.value, "bup"] for op in BranchOp) == \
            pytest.approx(100.0)
        assert 0 < data["branch ops", "bup"] < 100
        table7.render(data)

    def test_figure1_small(self):
        result = figure1.generate("lcp-2", capacities=(8, 256, 8192))
        assert len(result.points) == 3
        assert result.saturation_capacity in (8, 256, 8192)
        figure1.render(result)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bee"], [(1, 2.5), (30, "x")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_paper_data_complete(self):
        assert len(paper_data.TABLE1) == 19
        assert len(paper_data.TABLE7) == 16
        for values in paper_data.TABLE5.values():
            assert len(values) == 6


class TestCLI:
    def test_cli_runs_table6(self, capsys, monkeypatch):
        from repro.eval import cli
        monkeypatch.setitem(paper_data.ARTIFACTS["table6"].workloads,
                            "bup", "bup-1")
        assert cli.main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "work file" in out.lower()

    def test_cli_rejects_unknown_target(self):
        from repro.eval import cli
        with pytest.raises(SystemExit):
            cli.main(["table99"])

    @pytest.mark.parametrize("argv", [["table2", "nreverse"],
                                      ["table5", "--programs", "bup-1"],
                                      ["figure1", "lcp-2"],
                                      ["ablations", "--programs", "qsort"]])
    def test_cli_rejects_names_a_target_ignores(self, argv):
        from repro.eval import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert str(exc.value) == (f"psi-eval: {argv[0]} takes no workload "
                                  f"names (got: {argv[-1]})")

    def test_cli_has_no_obs_mode(self, capsys):
        from repro.eval import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(["table2", "--obs"])
        assert exc.value.code == 2          # argparse's usage error
        assert "unrecognized arguments: --obs" in capsys.readouterr().err
