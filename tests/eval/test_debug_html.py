"""The debug explorer artifact: self-contained, complete, divergence-aware.

Same discipline as the dashboard — zero external references — with the
explorer's one liberty: inline ``<script>`` blocks (the scrubber), and
only those (a JSON data island plus the scrubber logic, both embedded).
"""

import json
import re
from html.parser import HTMLParser

import pytest

from repro.eval import debughtml
from repro.eval.cli import main
from repro.obs.timetravel import TraceExplorer, first_divergence


@pytest.fixture(scope="module")
def nreverse():
    from repro.eval.runner import run_spec

    run = run_spec("nreverse", "faithful", record_trace=True)
    return run, TraceExplorer(run.trace)


@pytest.fixture(scope="module")
def explorer_html(nreverse):
    run, explorer = nreverse
    return debughtml.build_explorer("nreverse", run, explorer,
                                    generated="2026-01-01T00:00:00")


class _Auditor(HTMLParser):
    """Collects every attribute that could reference an external resource."""

    EXTERNAL_ATTRS = ("src", "href", "xlink:href", "data", "poster", "srcset")

    def __init__(self):
        super().__init__()
        self.external = []
        self.scripts = 0

    def handle_starttag(self, tag, attrs):
        if tag == "script":
            self.scripts += 1
        for key, value in attrs:
            if key in self.EXTERNAL_ATTRS and value:
                self.external.append((tag, key, value))


def _audit(html: str) -> _Auditor:
    auditor = _Auditor()
    auditor.feed(html)
    return auditor


class TestSelfContainment:
    def test_zero_external_references(self, explorer_html):
        auditor = _audit(explorer_html)
        assert auditor.external == []

    def test_exactly_the_two_inline_scripts(self, explorer_html):
        # The JSON data island plus the scrubber logic — nothing else.
        assert _audit(explorer_html).scripts == 2
        assert 'src=' not in explorer_html.split("viz-root")[0]

    def test_diff_page_is_script_free_and_self_contained(self, nreverse):
        run, explorer = nreverse
        html = debughtml.build_diff("nreverse", None, run, run.answers,
                                    explorer)
        auditor = _audit(html)
        assert auditor.external == [] and auditor.scripts == 0


class TestExplorerContent:
    def test_page_anatomy(self, explorer_html, nreverse):
        _, explorer = nreverse
        assert "PSI time-travel explorer — nreverse" in explorer_html
        assert 'id="scrub"' in explorer_html
        assert 'id="tt-data"' in explorer_html
        assert "Cache timeline" in explorer_html
        assert "Choicepoints and backtracking" in explorer_html
        assert f"{explorer.n_steps} memory microsteps" in explorer_html

    def test_data_island_parses_and_matches_the_run(self, explorer_html,
                                                    nreverse):
        _, explorer = nreverse
        island = re.search(r'id="tt-data">(.*?)</script>', explorer_html,
                           re.S).group(1)
        data = json.loads(island)
        assert data["entries"] == explorer.n_steps
        assert len(data["states"]) <= debughtml.MAX_SCRUB_STATES + 1
        final = data["states"][-1]
        assert final["step"] == explorer.n_steps
        assert final["backtracks"] == explorer.final.backtracks
        registers = dict(zip(data["registers"],
                             (a["top"] for a in final["areas"])))
        assert registers == explorer.final.registers

    def test_heat_strips_cover_every_touched_area(self, explorer_html,
                                                  nreverse):
        _, explorer = nreverse
        for area_index, area_state in enumerate(explorer.final.areas):
            if area_state.high_water:
                assert f'id="heat-{area_index}"' in explorer_html

    def test_answer_marks_are_jump_targets(self, explorer_html, nreverse):
        run, _ = nreverse
        for mark in run.answer_marks:
            assert f'data-jump="{mark}"' in explorer_html


class TestDiffPage:
    def test_divergence_rendered_side_by_side(self, nreverse):
        run, explorer = nreverse
        wrong = ((("X", "WRONG"),),)
        divergence = first_divergence("nreverse", run.answers,
                                      run.answer_marks, wrong,
                                      explorer.n_steps)
        assert divergence is not None and divergence.index == 0
        html = debughtml.build_diff("nreverse", divergence, run, wrong,
                                    explorer)
        assert "First-divergence report — nreverse" in html
        assert 'class="diverged"' in html
        assert f"diverging microstep ({divergence.microstep})" in html
        assert "WRONG" in html
        assert _audit(html).external == []

    def test_agreement_page_says_so(self, nreverse):
        run, explorer = nreverse
        html = debughtml.build_diff("nreverse", None, run, run.answers,
                                    explorer)
        assert "the engines agree" in html


class TestCli:
    def test_debug_writes_the_explorer(self, tmp_path, capsys):
        out = tmp_path / "explorer.html"
        assert main(["debug", "nreverse", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert f"wrote {out}" in text
        html = out.read_text()
        assert _audit(html).external == []
        assert "PSI time-travel explorer — nreverse" in html

    def test_debug_out_psi_obs_is_honoured(self, tmp_path, monkeypatch,
                                           capsys):
        # "psi-obs" is the profile directory's fallback name, not a
        # sentinel: debug writes exactly the path it is given.
        monkeypatch.chdir(tmp_path)
        assert main(["debug", "nreverse", "--out", "psi-obs"]) == 0
        assert "wrote psi-obs " in capsys.readouterr().out
        assert "PSI time-travel explorer" in (tmp_path / "psi-obs").read_text()
        assert not (tmp_path / "psi-debug-nreverse.html").exists()

    def test_debug_out_directory_gets_the_default_name(self, tmp_path,
                                                       capsys):
        # A directory --out (e.g. the one 'profile' wrote) holds the file.
        assert main(["debug", "nreverse", "--out", str(tmp_path)]) == 0
        out = tmp_path / "psi-debug-nreverse.html"
        assert f"wrote {out} " in capsys.readouterr().out
        assert "PSI time-travel explorer" in out.read_text()

    def test_debug_default_out_is_per_workload(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["debug", "nreverse"]) == 0
        assert "wrote psi-debug-nreverse.html" in capsys.readouterr().out
        assert (tmp_path / "psi-debug-nreverse.html").is_file()

    def test_debug_step_prints_state(self, capsys):
        assert main(["debug", "nreverse", "--step", "0"]) == 0
        text = capsys.readouterr().out
        assert "state at microstep 0" in text
        assert "HP=0" in text

    def test_debug_step_out_of_range(self):
        with pytest.raises(SystemExit):
            main(["debug", "nreverse", "--step", "999999999"])

    def test_debug_diff_agreeing_workload(self, tmp_path, capsys):
        out = tmp_path / "diff.html"
        assert main(["debug", "--diff", "nreverse", "--out", str(out)]) == 0
        assert "engines agree" in capsys.readouterr().out
        assert "the engines agree" in out.read_text()

    def test_debug_diff_seeded_divergence_exits_1(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.eval import runner
        from repro.eval.specs import get_spec

        real = runner.run_spec

        def forged(name, spec=None, record_trace=True):
            result = real(name, spec, record_trace=record_trace)
            if get_spec(spec).engine != "baseline":
                return result
            return runner.BaselineRun(stats=result.stats,
                                      answers=((("X", "WRONG"),),),
                                      counters=result.counters)

        monkeypatch.setattr(runner, "run_spec", forged)
        out = tmp_path / "diff.html"
        assert main(["debug", "--diff", "nreverse", "--out", str(out)]) == 1
        assert "diverges at PSI microstep" in capsys.readouterr().out
        assert 'class="diverged"' in out.read_text()

    def test_debug_requires_a_workload(self):
        with pytest.raises(SystemExit):
            main(["debug"])
