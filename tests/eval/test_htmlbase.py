"""Shared HTML helpers: behaviour, and the dashboard byte-identity pin.

``repro.eval.htmlbase`` was extracted verbatim from
``repro.eval.htmlreport``; the SHA-256 pins below were computed on the
pre-extraction dashboard builder over a fixed synthetic fidelity
report (``GOLDEN_FULL`` was re-taken once since; see its comment).  If either hash moves, the shared helpers changed dashboard
output — which the extraction promised never to do.  (A deliberate
dashboard redesign should update the pins in the same commit and say
so; this test exists to make silent drift impossible.)
"""

import hashlib
import types

import pytest

from repro.eval import htmlbase
from repro.eval.htmlreport import build_dashboard
from repro.obs.fidelity import CellDrift, FidelityReport, TableFidelity

#: SHA-256 of the full dashboard (figure 1 + history) over the fixture
#: below.  Its history entries carry fidelity scores only, since the
#: dashboard no longer charts ``bench`` entries; the hash is what the
#: builder printed for this same fixture before that removal.
GOLDEN_FULL = "a6a01fe26f013ba7fe44548bfc5a2cb50dfa9ddc7517079ebc17c3db82b52907"
#: SHA-256 of the bare dashboard — ``build_dashboard(report)`` alone.
GOLDEN_BARE = "743f697208e9c72fc493bd0677a37b901fb425e2161daeb2b9736de2e69649ed"


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


def _history():
    return [{"fidelity": {"overall": {"score": 75.0}}},
            {"fidelity": {"overall": {"score": 81.4}}}]


@pytest.fixture()
def report():
    return FidelityReport(tables=(_table("table2", [0.4, 1.8]),
                                  _table("table6", [0.2, 3.1, -0.7])))


class TestByteIdentityPin:
    def test_full_dashboard_unchanged(self, report):
        html = build_dashboard(report, figure1_result=_figure1(),
                               history_entries=_history(),
                               generated="2026-01-01T00:00:00")
        assert hashlib.sha256(html.encode()).hexdigest() == GOLDEN_FULL

    def test_bare_dashboard_unchanged(self, report):
        html = build_dashboard(report)
        assert hashlib.sha256(html.encode()).hexdigest() == GOLDEN_BARE


class TestPageSkeleton:
    def test_page_is_one_self_contained_document(self):
        html = htmlbase.page("A & B", "<p>body</p>")
        assert html.startswith("<!DOCTYPE html>\n")
        assert html.endswith("</body></html>\n")
        assert "<title>A &amp; B</title>" in html
        assert htmlbase.BASE_CSS in html
        assert "<script>" not in html

    def test_script_block_only_when_requested(self):
        html = htmlbase.page("t", "b", script="console.log(1)")
        assert "<script>console.log(1)</script></body>" in html

    def test_extra_css_appends_after_base(self):
        html = htmlbase.page("t", "b", extra_css=".extra{}")
        assert f"{htmlbase.BASE_CSS}.extra{{}}</style>" in html


class TestHelpers:
    def test_esc(self):
        assert htmlbase.esc('<a href="x">') == "&lt;a href=&quot;x&quot;&gt;"

    def test_fmt(self):
        assert htmlbase.fmt(3.0) == "3"
        assert htmlbase.fmt(3.14159) == "3.14"
        assert htmlbase.fmt(123.456) == "123.5"

    def test_round_bar_carries_tooltip(self):
        bar = htmlbase.round_bar(0, 0, 50, 10, "var(--measured)", "a<b")
        assert "<title>a&lt;b</title>" in bar and bar.startswith("<path")

    def test_legend(self):
        html = htmlbase.legend((("measured", "var(--measured)"),))
        assert "measured" in html and 'class="legend"' in html

    def test_sparkline_empty_and_single(self):
        assert htmlbase.sparkline([], "x") == ""
        assert "1 entry" in htmlbase.sparkline([5.0], "x")
