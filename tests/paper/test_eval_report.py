"""The committed report is exactly what ``psi-eval all`` prints.

``results/eval_report.txt`` is regenerated with
``psi-eval all > results/eval_report.txt`` and ``results/fidelity.json``
with ``psi-eval fidelity --json > results/fidelity.json``; a change to
any table, figure, ablation or scored cell (paper value, measured
float or drift) that leaves a committed file stale fails here.
"""

import pathlib

import pytest

from repro.eval.cli import main

pytestmark = pytest.mark.slow

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
REPORT = RESULTS / "eval_report.txt"
FIDELITY = RESULTS / "fidelity.json"


def test_all_output_matches_committed_report(capsys):
    assert main(["all"]) == 0
    assert capsys.readouterr().out == REPORT.read_bytes().decode()


def test_fidelity_json_matches_committed_document(capsys):
    # Runs after the report test, so every run is already memoized.
    assert main(["fidelity", "--json"]) == 0
    assert capsys.readouterr().out == FIDELITY.read_bytes().decode()
