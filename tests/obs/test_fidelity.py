"""Paper-drift scoring tests: the cell declarations, the scorer,
aggregation, the CLI gate."""

import json
import pathlib
import types

import pytest

from repro.eval import paper_data, specs
from repro.eval.paper_data import ARTIFACTS, Ratio, Sum, place
from repro.eval.report import VIEWS, Measured
from repro.obs import fidelity
from repro.obs.fidelity import (
    CellDrift,
    FidelityReport,
    TableFidelity,
    _cell,
    score_figure1,
    score_table1,
    score_table2,
    score_table3,
)
from repro.workloads import get, table1_workloads

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "results" / "fidelity.json"


class TestCellMath:
    def test_ratio_kind_uses_relative_error(self):
        cell = _cell("ratio", 0.25, "r", "c", paper=2.0, measured=2.5)
        assert cell.error == pytest.approx(0.25)
        assert cell.drift == pytest.approx(1.0)
        assert cell.within

    def test_percent_kind_uses_absolute_points(self):
        cell = _cell("percent", 5.0, "r", "c", paper=40.0, measured=47.5)
        assert cell.error == pytest.approx(7.5)
        assert cell.drift == pytest.approx(1.5)
        assert not cell.within

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            _cell("absolute", 1.0, "r", "c", 1.0, 1.0)

    def test_zero_paper_value_does_not_divide_by_zero(self):
        cell = _cell("ratio", 0.25, "r", "c", paper=0.0, measured=0.1)
        assert cell.drift > 1.0


def _measured(artifact: str, programs, value: float = 20.0) -> Measured:
    """Generated data for ``artifact`` with every cell of ``programs``
    measuring ``value``."""
    return Measured(tuple(programs), {
        place(row, col, program): value for program in programs
        for row, col, _ in ARTIFACTS[artifact].measures})


class TestScorers:
    def test_table1_scores_the_ratio_column(self):
        rows = [types.SimpleNamespace(name="nreverse", ratio=0.75),
                types.SimpleNamespace(name="qsort", ratio=2.0)]
        table = score_table1(rows)
        assert table.kind == "ratio"
        assert [(c.row, c.col) for c in table.cells] == \
            [("nreverse", "dec_over_psi"), ("qsort", "dec_over_psi")]
        in_band, out_band = table.cells
        assert in_band.within and not out_band.within
        assert table.score == pytest.approx(50.0)

    def test_cells_without_paper_values_are_not_scored(self):
        # "x" prints no paper row; the read:write ratio and write-stack
        # share are printed, never scored.
        table = score_table3(_measured("table3", ["bup", "x"]))
        assert {c.row for c in table.cells} == {"bup"}
        assert [c.col for c in table.cells] == [
            "read", "write_stack", "write", "write_total", "total"]
        # The paper gives no builtin call rate for 8 PUZZLE.
        table = score_table2(_measured("table2", ["puzzle8"]))
        assert "builtin_call_rate" not in {c.col for c in table.cells}
        assert len(table.cells) == 6

    def test_scored_values_come_from_the_measured_cells(self):
        data = _measured("table3", ["bup"], value=15.6)
        table = score_table3(data)
        read = table.cells[0]
        assert (read.paper, read.measured, read.drift) == (15.6, 15.6, 0.0)

    def test_figure1_single_saturation_cell(self):
        result = types.SimpleNamespace(
            saturation_capacity=paper_data.FIGURE1_SATURATION_WORDS)
        table = score_figure1(result)
        assert len(table.cells) == 1
        assert table.cells[0].within
        assert table.score == 100.0


class TestDeclarations:
    def test_each_cell_is_declared_once_per_artifact(self):
        for artifact in ARTIFACTS.values():
            keys = [(cell.row, cell.col) for cell in artifact.cells()]
            assert len(keys) == len(set(keys)), artifact.name

    def test_every_scored_artifact_has_a_band_and_workloads(self):
        for name in fidelity.TABLES:
            artifact = ARTIFACTS[name]
            assert artifact.kind in ("ratio", "percent")
            assert artifact.tolerance > 0
            assert artifact.workloads
            for workload in artifact.workloads.values():
                get(workload)                  # a registered workload

    def test_scored_cell_counts_match_the_golden_document(self):
        counts = {name: sum(cell.paper is not None
                            for cell in ARTIFACTS[name].cells())
                  for name in fidelity.TABLES}
        assert counts == {"table1": 19, "table2": 26, "table3": 35,
                          "table4": 35, "table5": 42, "table6": 31,
                          "table7": 48, "figure1": 1}
        golden = json.loads(GOLDEN.read_text())["tables"]
        assert counts == {name: golden[name]["cells"] for name in golden}

    def test_table1_rows_follow_the_registry(self):
        assert list(ARTIFACTS["table1"].workloads) == \
            [w.name for w in table1_workloads()]

    def test_measures_key_into_views_and_earlier_cells(self):
        for artifact in ARTIFACTS.values():
            declared = set()
            for row, col, how in artifact.measures:
                if isinstance(how, Ratio):
                    assert {view for view, _ in how.num + how.den} <= \
                        set(VIEWS)
                elif isinstance(how, Sum):
                    assert set(how.cells) <= declared, (row, col)
                declared.add((row, col))


def _table(name: str, drifts) -> TableFidelity:
    cells = tuple(CellDrift(row=f"r{i}", col="c", paper=1.0, measured=1.0,
                            error=d, drift=d) for i, d in enumerate(drifts))
    return TableFidelity(name, "ratio", 1.0, cells)


class TestAggregation:
    def test_overall_is_equal_weight_mean_of_table_scores(self):
        report = FidelityReport(tables=(
            _table("a", [0.5, 0.5]),            # 100
            _table("b", [0.5, 2.0, 2.0, 2.0]),  # 25
        ))
        assert report.overall_score == pytest.approx(62.5)
        assert report.overall_drift == pytest.approx(37.5)
        assert report.total_cells == 6
        assert report.total_within == 3

    def test_pass_fail_threshold(self):
        tables = (_table("a", [2.0]),)         # 0% in band -> drift 100
        assert FidelityReport(tables=tables, threshold=100.0).passed
        assert not FidelityReport(tables=tables, threshold=50.0).passed

    def test_to_dict_schema_and_cell_limit(self):
        report = FidelityReport(tables=(_table("a", [0.1, 3.0, 2.0]),))
        doc = report.to_dict(cell_limit=2)
        assert doc["schema"] == fidelity.JSON_SCHEMA_VERSION
        assert set(doc) == {"schema", "threshold", "passed", "overall",
                            "tables"}
        table_doc = doc["tables"]["a"]
        assert table_doc["cells"] == 3
        assert len(table_doc["worst_cells"]) == 2
        # worst first
        assert table_doc["worst_cells"][0]["drift"] == pytest.approx(3.0)
        json.dumps(doc)                        # plain data

    def test_render_names_the_worst_cell_and_verdict(self):
        report = FidelityReport(tables=(_table("a", [0.1, 3.0]),),
                                threshold=10.0)
        text = report.render()
        assert "r1" in text and "FAIL" in text

    def test_collect_rejects_unknown_tables(self):
        with pytest.raises(ValueError):
            fidelity.collect(tables=["table9"])


class TestCliGate:
    """`psi-eval fidelity` must exit non-zero above threshold — both ways."""

    @pytest.fixture()
    def fake_collect(self, monkeypatch):
        def _install(drifts):
            def collect(tables=None, threshold=fidelity.DEFAULT_MAX_DRIFT):
                return FidelityReport(tables=(_table("table2", drifts),),
                                      threshold=threshold)
            monkeypatch.setattr(fidelity, "collect", collect)
        return _install

    def test_exit_zero_below_threshold(self, fake_collect, capsys):
        from repro.eval.cli import main
        fake_collect([0.1, 0.2])
        assert main(["fidelity"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_one_above_threshold(self, fake_collect, capsys):
        from repro.eval.cli import main
        fake_collect([2.0, 3.0, 4.0])          # 0% in band
        assert main(["fidelity"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_max_drift_flag_moves_the_gate(self, fake_collect):
        from repro.eval.cli import main
        fake_collect([0.5, 2.0])               # 50% in band, drift 50
        assert main(["fidelity", "--max-drift", "60"]) == 0
        assert main(["fidelity", "--max-drift", "40"]) == 1

    def test_json_output_is_parseable_and_carries_verdict(self, fake_collect,
                                                          capsys):
        from repro.eval.cli import main
        fake_collect([0.5])
        assert main(["fidelity", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["tables"]["table2"]["score"] == 100.0

    @pytest.mark.parametrize("argv, message", [
        (["fidelity", "table9"], "unknown fidelity table(s): table9"),
        (["report", "--tables", "table9"], "unknown fidelity table(s): table9"),
        (["report", "--spec", "indexed"],
         "fidelity scoring scores the paper's faithful configuration"),
    ])
    def test_bad_selection_is_a_one_line_error(self, argv, message):
        from repro.eval.cli import main
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
        finally:
            specs.set_default_spec("faithful")
        text = str(exc.value)
        assert text.startswith(f"psi-eval: {message}")
        assert "\n" not in text
