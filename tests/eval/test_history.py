"""Run-history store tests: append/stamp, resolve, render, compare."""

import json

import pytest

from repro.eval.history import HistoryStore, render_entry_diff


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("PSI_HISTORY_DIR", str(tmp_path / "hist"))
    return HistoryStore()


def _fidelity_payload(score: float, table_score: float) -> dict:
    return {"fidelity": {
        "overall": {"score": score, "drift": round(100 - score, 2)},
        "tables": {"table2": {"score": table_score}},
    }}


class TestAppend:
    def test_entries_are_stamped_and_appended_in_order(self, store):
        first = store.append("fidelity", _fidelity_payload(80.0, 70.0))
        second = store.append("bench", {"bench": {"obs": {
            "enabled_overhead_pct": 47.7}}})
        assert first["schema"] == 1
        assert first["kind"] == "fidelity"
        assert first["ts"] and first["code_version"]
        entries = store.entries()
        assert [e["kind"] for e in entries] == ["fidelity", "bench"]
        assert entries[0]["fidelity"]["overall"]["score"] == 80.0

    def test_append_only_one_json_object_per_line(self, store):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        store.append("fidelity", _fidelity_payload(90.0, 80.0))
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_corrupt_lines_are_skipped(self, store):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        with store.path.open("a") as fp:
            fp.write("{not json\n")
        store.append("fidelity", _fidelity_payload(90.0, 80.0))
        assert len(store.entries()) == 2

    def test_env_override_controls_location(self, store, tmp_path):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        assert store.path.is_relative_to(tmp_path / "hist")


class TestResolve:
    def test_by_index_including_negative(self, store):
        a = store.append("fidelity", _fidelity_payload(80.0, 70.0))
        b = store.append("fidelity", _fidelity_payload(90.0, 80.0))
        assert store.resolve(0)["fidelity"] == a["fidelity"]
        assert store.resolve(-1)["fidelity"] == b["fidelity"]
        assert store.resolve("-2")["fidelity"] == a["fidelity"]

    def test_by_timestamp_prefix_prefers_newest_match(self, store):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        newest = store.append("fidelity", _fidelity_payload(90.0, 80.0))
        prefix = newest["ts"][:4]              # the year matches both
        assert store.resolve(prefix)["fidelity"] == newest["fidelity"]

    def test_lookup_errors(self, store):
        with pytest.raises(LookupError):
            store.resolve(0)                   # empty store
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        with pytest.raises(LookupError):
            store.resolve(5)                   # index out of range
        with pytest.raises(LookupError):
            store.resolve("deadbeef")          # no such prefix


class TestRenderAndCompare:
    def test_render_lists_entries_with_scores(self, store):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        text = store.render()
        assert "run history" in text and "80.0" in text

    def test_render_last_limits_rows(self, store):
        for score in (70.0, 80.0, 90.0):
            store.append("fidelity", _fidelity_payload(score, score))
        text = store.render(last=1)
        assert "90.0" in text and "70.0" not in text

    def test_render_empty_store(self, store):
        assert "no history entries" in store.render()

    def test_compare_reports_fidelity_deltas(self, store):
        store.append("fidelity", _fidelity_payload(80.0, 70.0))
        store.append("fidelity", _fidelity_payload(90.0, 85.0))
        text = store.compare(-2, -1)
        assert "fidelity score deltas" in text
        assert "15.0" in text                  # table2: 70 -> 85
        assert "10.0" in text                  # overall: 80 -> 90

    def test_disjoint_entries_say_so(self):
        text = render_entry_diff({"ts": "t0"}, {"ts": "t1"})
        assert "no comparable sections" in text
