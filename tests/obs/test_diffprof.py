"""Differential profiling tests: snapshots, reconciliation, end-to-end."""

import json

import pytest

from repro.core.micro import Module
from repro.obs.diffprof import (
    diff_profiles,
    diff_snapshot_files,
    is_snapshot_file,
    read_snapshot,
)
from repro.obs.profile import MicroProfile


def _profile(samples: dict) -> MicroProfile:
    profile = MicroProfile()
    for (predicate, module), steps in samples.items():
        profile.add(predicate, module, steps)
    return profile


class TestProfileSnapshotRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        profile = _profile({("a/1", Module.UNIFY): 10,
                            ("b/2", Module.CONTROL): 7})
        rebuilt = MicroProfile.from_dict(profile.to_dict())
        assert rebuilt.samples == profile.samples
        assert rebuilt.total_steps == profile.total_steps


class TestDiff:
    def test_deltas_and_hotspot_classification(self):
        base = _profile({("a/1", Module.UNIFY): 10,
                         ("gone/0", Module.CONTROL): 5})
        current = _profile({("a/1", Module.UNIFY): 14,
                            ("new/0", Module.TRAIL): 3})
        diff = diff_profiles(base, current)
        by_key = {(d.predicate, d.module): d for d in diff.deltas}
        assert by_key[("a/1", "unify")].delta == 4
        assert by_key[("new/0", "trail")].is_new
        assert by_key[("gone/0", "control")].vanished
        assert [d.predicate for d in diff.new_hotspots] == ["new/0"]
        assert [d.predicate for d in diff.vanished_hotspots] == ["gone/0"]

    def test_reconciliation_exact(self):
        base = _profile({("a/1", Module.UNIFY): 10,
                         ("b/2", Module.CONTROL): 5})
        current = _profile({("a/1", Module.UNIFY): 12})
        diff = diff_profiles(base, current)
        assert diff.reconciles()
        assert sum(d.delta for d in diff.deltas) == diff.total_delta
        assert diff.base_total == 15 and diff.current_total == 12

    def test_tampered_totals_flag_mismatch(self):
        base = _profile({("a/1", Module.UNIFY): 10})
        diff = diff_profiles(base, base)
        broken = type(diff)(base_label="b", current_label="c",
                            base_total=999, current_total=diff.current_total,
                            deltas=diff.deltas)
        assert not broken.reconciles()
        assert "MISMATCH" in broken.render()

    def test_render_mentions_totals_and_reconciliation(self):
        base = _profile({("a/1", Module.UNIFY): 10})
        current = _profile({("a/1", Module.UNIFY): 13})
        text = diff_profiles(base, current).render()
        assert "10 -> current 13" in text
        assert "+3 steps" in text
        assert "reconciled" in text


class TestSnapshotFiles:
    def _write(self, path, total=10, metrics=None):
        data = {"kind": "psi-profile-snapshot", "schema": 1,
                "workload": "w", "total_steps": total,
                "profile": _profile({("a/1", Module.UNIFY): total}).to_dict(),
                "metrics": metrics}
        path.write_text(json.dumps(data))

    def test_read_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "metrics"}))
        with pytest.raises(ValueError):
            read_snapshot(path)
        assert not is_snapshot_file(path)
        assert not is_snapshot_file(tmp_path / "missing.json")

    def test_diff_snapshot_files_with_metrics(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, total=10,
                    metrics={"psi.runs": {"kind": "counter", "value": 1}})
        self._write(b, total=12,
                    metrics={"psi.runs": {"kind": "counter", "value": 3}})
        text = diff_snapshot_files(a, b)
        assert "microstep deltas" in text
        assert "counter metric deltas" in text
        assert "psi.runs" in text


def test_end_to_end_profile_then_diff(tmp_path, capsys):
    """`psi-eval profile` twice, then `psi-eval diff` on the snapshots:
    the report must reconcile each side against its run's total steps."""
    from repro.eval.cli import main

    assert main(["profile", "nreverse", "qsort",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    base = tmp_path / "nreverse.profile.json"
    current = tmp_path / "qsort.profile.json"
    assert is_snapshot_file(base) and is_snapshot_file(current)

    # The snapshot's profile total equals the run's recorded total.
    for path in (base, current):
        data = read_snapshot(path)
        assert data["profile"]["total_steps"] == data["total_steps"]

    assert main(["diff", str(base), str(current)]) == 0
    out = capsys.readouterr().out
    assert "reconciled" in out and "MISMATCH" not in out


def test_diff_of_non_snapshot_operands_is_a_one_line_error():
    """Operands that are not snapshot files exit non-zero with one
    line, not a traceback."""
    from repro.eval.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["diff", "-2", "-1"])
    message = str(exc.value.code)
    assert exc.value.code != 0 and message.startswith("psi-eval diff:")
    assert "\n" not in message
