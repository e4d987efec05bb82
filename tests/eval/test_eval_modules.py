"""Tests for the evaluation harness (fast workloads only).

The full-table regeneration and its paper-shape checks live in
tests/paper/; these tests check the plumbing: caching, row
construction, rendering and the CLI, using the quick benchmarks so the
whole module runs in seconds.
"""

import pytest

from repro.core.memory import Area
from repro.core.micro import Module, WFMode
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
        row = table1.Table1Row("x", "(0)", "x", 10.0, 12.0, 1.2,
                               10.0, 13.0, 1.3, 100)
        assert table1._winner_agrees(row)
        row_no = table1.Table1Row("x", "(0)", "x", 10.0, 8.0, 0.8,
                                  10.0, 13.0, 1.3, 100)
        assert not table1._winner_agrees(row_no)
        near_tie = table1.Table1Row("x", "(0)", "x", 10.0, 10.4, 1.04,
                                    10.0, 9.6, 0.96, 100)
        assert table1._winner_agrees(near_tie)


class TestProfileTables:
    def test_table2_rows(self):
        rows = table2.generate(FAST)
        assert len(rows) == 4
        for row in rows:
            assert sum(row.ratios.values()) == pytest.approx(100.0)
        assert "program" in table2.render(rows)

    def test_table3_rows(self):
        rows = table3.generate({"bup": "bup-1"})
        row = rows[0]
        assert row.total == pytest.approx(row.read + row.write_total)
        assert 0 < row.total < 100
        assert "write-stack" in table3.render(rows)

    def test_table4_rows(self):
        rows = table4.generate({"bup": "bup-1"})
        total = sum(rows[0].ratios.values())
        assert total == pytest.approx(100.0, abs=0.5)
        table4.render(rows)

    def test_table5_rows(self):
        rows = table5.generate({"bup": "bup-1"})
        row = rows[0]
        for area in (Area.HEAP, Area.GLOBAL):
            assert 0 < row.ratios[area] <= 100.0
        table5.render(rows)

    def test_table6(self):
        result = table6.generate("bup-1")
        assert set(result.totals) == {"source1", "source2", "dest"}
        assert 0 < result.direct_share <= 100
        text = table6.render(result)
        assert "@WFAR1" in text

    def test_table7(self):
        result = table7.generate({"bup": "bup-1"})
        assert sum(result.ratios["bup"].values()) == pytest.approx(100.0)
        assert 0 < result.branch_rates["bup"] < 100
        table7.render(result)

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
        from repro.eval import cli, table6 as t6
        monkeypatch.setattr(t6, "WORKLOAD", "bup-1")
        assert cli.main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "work file" in out.lower()

    def test_cli_rejects_unknown_target(self):
        from repro.eval import cli
        with pytest.raises(SystemExit):
            cli.main(["table99"])

    def test_cli_has_no_obs_mode(self, capsys):
        from repro.eval import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(["table2", "--obs"])
        assert exc.value.code == 2          # argparse's usage error
        assert "unrecognized arguments: --obs" in capsys.readouterr().err
