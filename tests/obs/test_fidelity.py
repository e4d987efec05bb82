"""Paper-drift scoring tests: pure scorers, aggregation, the CLI gate."""

import json
import types

import pytest

from repro.eval import paper_data
from repro.obs import fidelity
from repro.obs.fidelity import (
    CellDrift,
    FidelityReport,
    TableFidelity,
    _cell,
    score_figure1,
    score_table1,
    score_table3,
)


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


class TestScorers:
    def test_table1_scores_the_ratio_column(self):
        rows = [types.SimpleNamespace(name="nrev", paper_ratio=1.5, ratio=1.4),
                types.SimpleNamespace(name="qsort", paper_ratio=1.0, ratio=2.0)]
        table = score_table1(rows)
        assert table.kind == "ratio"
        assert len(table.cells) == 2
        in_band, out_band = table.cells
        assert in_band.within and not out_band.within
        assert table.score == pytest.approx(50.0)

    def test_table3_skips_rows_without_paper_values(self):
        row = types.SimpleNamespace(program="bup", paper=(20.0, 8.0, 12.0,
                                                          20.0, 40.0),
                                    read=21.0, write_stack=9.0, write=11.0,
                                    write_total=20.0, total=41.0)
        silent = types.SimpleNamespace(program="x", paper=None)
        table = score_table3([row, silent])
        assert {c.row for c in table.cells} == {"bup"}
        assert len(table.cells) == 5
        assert table.score == 100.0

    def test_figure1_single_saturation_cell(self):
        result = types.SimpleNamespace(
            saturation_capacity=paper_data.FIGURE1_SATURATION_WORDS)
        table = score_figure1(result)
        assert len(table.cells) == 1
        assert table.cells[0].within
        assert table.score == 100.0


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


class TestBands:
    def test_every_scoreable_artifact_has_a_band(self):
        assert set(paper_data.FIDELITY_BANDS) == set(fidelity.TABLES)
        for band in paper_data.FIDELITY_BANDS.values():
            assert band["kind"] in ("ratio", "percent")
            assert band["tolerance"] > 0


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
