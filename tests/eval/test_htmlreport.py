"""Dashboard tests: structure, content, and strict self-containment."""

import types
from html.parser import HTMLParser

import pytest

from repro.eval.htmlreport import build_dashboard
from repro.obs.fidelity import CellDrift, FidelityReport, TableFidelity


def _table(name: str, drifts) -> TableFidelity:
    cells = tuple(CellDrift(row=f"prog{i}", col="colA", paper=10.0 + i,
                            measured=10.0 + i + d, error=d, drift=d)
                  for i, d in enumerate(drifts))
    return TableFidelity(name, "percent", 5.0, cells)


def _figure1():
    points = [types.SimpleNamespace(capacity_words=c, hit_ratio=90.0 + i,
                                    improvement_percent=5.0 * (i + 1))
              for i, c in enumerate((128, 256, 512, 1024))]
    return types.SimpleNamespace(points=points, saturation_capacity=512)


@pytest.fixture()
def report():
    return FidelityReport(tables=(_table("table2", [0.4, 1.8]),
                                  _table("table6", [0.2])))


@pytest.fixture()
def html(report):
    return build_dashboard(report, figure1_result=_figure1(),
                           generated="2026-08-06T00:00:00")


class _Auditor(HTMLParser):
    """Collects every attribute that could reference an external resource."""

    EXTERNAL_ATTRS = ("src", "href", "xlink:href", "data", "poster", "srcset")

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.external = []
        self.tags = []
        self.scripts = 0

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        if tag == "script":
            self.scripts += 1
        for name, value in attrs:
            if name.lower() in self.EXTERNAL_ATTRS and value:
                self.external.append((tag, name, value))


def _audit(html: str) -> _Auditor:
    auditor = _Auditor()
    auditor.feed(html)
    auditor.close()
    return auditor


class TestSelfContainment:
    def test_zero_external_references(self, html):
        audit = _audit(html)
        assert audit.external == []

    def test_no_scripts_no_imports(self, html):
        audit = _audit(html)
        assert audit.scripts == 0
        assert "@import" not in html
        assert "url(" not in html

    def test_is_a_complete_document(self, html):
        assert html.startswith("<!DOCTYPE html>")
        audit = _audit(html)
        for tag in ("html", "head", "style", "body", "svg"):
            assert tag in audit.tags


class TestContent:
    def test_scorecard_and_tables_present(self, report, html):
        assert f"{report.overall_score:.1f}" in html
        assert "table2" in html and "table6" in html
        assert "prog1" in html                 # worst cell appears

    def test_legend_and_table_view(self, html):
        assert "measured" in html and "paper" in html
        assert "<details>" in html and "table view" in html

    def test_figure1_marks_paper_saturation(self, html):
        assert "paper saturation" in html
        assert "512" in html

    def test_dark_mode_palette_defined(self, html):
        assert "prefers-color-scheme: dark" in html
        assert "--measured" in html and "--paper" in html

    def test_optional_sections_degrade(self, report):
        html = build_dashboard(report)
        audit = _audit(html)
        assert audit.external == []
        assert "paper saturation" not in html

    def test_labels_are_escaped(self):
        table = TableFidelity("table2", "percent", 5.0, (
            CellDrift(row="<evil>", col="a&b", paper=1.0, measured=2.0,
                      error=1.0, drift=0.2),))
        html = build_dashboard(FidelityReport(tables=(table,)))
        assert "<evil>" not in html
        assert "&lt;evil&gt;" in html
