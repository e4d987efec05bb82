"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from psibench import (common, hostspeed, observe,  # noqa: E402
                      report_warm, serve_mix, solve_cold)
from psibench.spans import Tracer  # noqa: E402

COMPOSITIONS = {
    "solve-cold": solve_cold.COMPOSITION,
    "report-warm": report_warm.COMPOSITION,
    "serve-mix": serve_mix.COMPOSITION,
    "observe": observe.COMPOSITION,
}


@pytest.mark.parametrize("workload", sorted(COMPOSITIONS))
def test_seed_fixes_the_op_sequence(workload):
    composition = COMPOSITIONS[workload]
    first = [common.draw_pass(composition, 7, i) for i in range(3)]
    again = [common.draw_pass(composition, 7, i) for i in range(3)]
    other = [common.draw_pass(composition, 8, i) for i in range(3)]
    assert first == again
    assert first != other
    for ops in first + other:
        assert sorted(ops) == sorted(composition)


def test_solve_cold_mix_is_three_one_one():
    specs = [spec for _, spec in solve_cold.COMPOSITION]
    n = len(solve_cold.PROGRAMS)
    assert (specs.count("faithful"), specs.count("indexed"),
            specs.count("baseline")) == (3 * n, n, n)


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(common.TooFewSamples):
        common.percentile(range(99), 90)
    assert common.percentile(range(100), 90) == 89
    with pytest.raises(common.TooFewSamples):
        common.percentile(range(999), 99)
    assert common.percentile(range(1000), 99) == 989
    assert common.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert math.isnan(common.percentile_or_nan(range(50), 90))
    assert "n/a" in common.percentile_line("x", range(50), 90)


def test_failed_ops_miss_every_latency_limit():
    ops = common.Ops()
    for i in range(989):
        ops.record(i, 1.0, None)
    for i in range(11):
        ops.record(i, 1.0, "wrong answer")
    assert ops.failed == 11
    assert common.percentile(ops.latencies_ms, 90) == 1.0
    assert common.percentile(ops.latencies_ms, 99) == math.inf


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.scale(3.0, ref, ref) == 3.0
    # Probes twice as slow as the reference halve the time...
    assert hostspeed.scale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    # ... by the mean of the probes before and after ...
    assert hostspeed.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)
    # ... or by a power of that ratio for less sensitive work.
    assert hostspeed.scale(3.0, 4 * ref, 4 * ref, 0.5) == pytest.approx(1.5)
    assert hostspeed.scale(3.0, 4 * ref, 4 * ref, 0.0) == 3.0
    assert hostspeed.probe() > 0


def test_first_difference_is_one_line():
    assert common.first_difference("x", {"a": 1}, {"a": 1}) is None
    line = common.first_difference("nreverse/faithful",
                                   {"steps": 1, "answers": [["R", "[]"]]},
                                   {"steps": 2, "answers": [["R", "[]"]]})
    assert line == "nreverse/faithful.steps: got 1, want 2"
    line = common.first_difference("table6 text", "a\nb\nc", "a\nB\nc")
    assert line == 'table6 text line 2: got "b", want "B"'


def test_tracer_self_times_and_restore():
    class Layer:
        def outer(self):
            with tracer.span("inner"):
                return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.active = True
    with tracer.op("op-1"):
        assert Layer().outer() == 1
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    names = [span[0] for span in tracer.spans]
    assert names == ["op", "outer", "inner"]
    own = tracer.self_times()
    total = [span[2] - span[1] for span in tracer.spans]
    assert own[0] + own[1] + own[2] == total[0]
    assert tracer.by_op()["op-1"]["inner"][3] == 1


def test_reference_agrees_with_the_golden_digests():
    sys.path.insert(0, str(ROOT))
    from tests.core.test_stream_equivalence import GOLDEN

    reference = common.load_reference()
    for name, golden in GOLDEN.items():
        assert (reference["solve"][f"{name}/faithful"]["steps"]
                == golden["aggregates"]["total_steps"])
        assert (reference["solve"][f"{name}/faithful"]["inferences"]
                == golden["aggregates"]["inferences"])
    sections = report_warm.report_sections(
        (ROOT / "results" / "eval_report.txt").read_text())
    for name in report_warm.ARTIFACTS:
        assert reference["report"]["artifacts"][name]["text"] == \
            sections[name]


def test_tampered_reference_lowers_ok_frac(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "psibench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["observe"]["lcp-1"]["steps"] += 1
    del reference["observe"]["lcp-2"]
    path.write_text(json.dumps(reference))
    out = subprocess.run([sys.executable, "perfbench/run.py",
                          "--workload", "observe", "--seed", "1",
                          "--seconds", "0", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True, timeout=180)
    line = json.loads(out.stdout.splitlines()[-1])
    assert line["correct"] is False
    # One pass, with lcp-1 and lcp-2 in it once each.
    assert line["attempted"] == len(observe.PROGRAMS)
    assert line["failed"] == 2
    assert line["metrics"]["ok_frac"]["value"] == \
        (line["attempted"] - 2) / line["attempted"]
    assert "FAILED lcp-1.steps: got " in out.stdout
    assert "FAILED lcp-2: KeyError: 'lcp-2'" in out.stdout


def _digest(path: pathlib.Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


def test_a_run_leaves_the_checkout_clean():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    watched = [ROOT / "BENCH_eval.json",
               ROOT / "results" / "history" / "history.jsonl"]
    before = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True,
                            check=True).stdout
    digests = [_digest(path) for path in watched]
    had_cache = (ROOT / ".psi-cache").exists()
    out = subprocess.run([sys.executable, str(BENCH / "run.py"),
                          "--workload", "observe", "--seed", "3",
                          "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=180)
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
    after = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True,
                           check=True).stdout
    assert after == before
    assert [_digest(path) for path in watched] == digests
    assert (ROOT / ".psi-cache").exists() == had_cache
    assert not (ROOT / ".perfbench-work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py",
                          "--workload", "solve-cold", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
