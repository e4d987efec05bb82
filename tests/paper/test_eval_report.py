"""The committed report is exactly what ``psi-eval all`` prints.

``results/eval_report.txt`` is regenerated with
``psi-eval all > results/eval_report.txt``; a change to any table,
figure or ablation that leaves the committed file stale fails here.
"""

import pathlib

import pytest

from repro.eval.cli import main

pytestmark = pytest.mark.slow

REPORT = (pathlib.Path(__file__).resolve().parents[2]
          / "results" / "eval_report.txt")


def test_all_output_matches_committed_report(capsys):
    assert main(["all"]) == 0
    assert capsys.readouterr().out == REPORT.read_bytes().decode()
