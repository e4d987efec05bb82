"""Tracer unit tests: ring buffers, slices, exports, round-trips."""

import io
import json

import pytest

from repro.obs.trace import (
    SCHEMA_VERSION,
    STEP_NS,
    RingBuffer,
    TraceEvent,
    Tracer,
    read_jsonl,
)


class TestRingBuffer:
    def test_append_and_order(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.append(i)
        assert list(ring) == [0, 1, 2]
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_overflow_drops_oldest(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.append(i)
        assert list(ring) == [2, 3, 4]
        assert len(ring) == 3
        assert ring.dropped == 2

    def test_exact_capacity_boundary(self):
        ring = RingBuffer(2)
        ring.append("a")
        ring.append("b")
        assert list(ring) == ["a", "b"]
        assert ring.dropped == 0
        ring.append("c")
        assert list(ring) == ["b", "c"]
        assert ring.dropped == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestSlices:
    def test_begin_implicitly_ends_previous(self):
        tracer = Tracer()
        tracer.begin_slice("calls", "a/1", 0)
        tracer.begin_slice("calls", "b/2", 10)
        tracer.finish(25)
        events = tracer.events("calls")
        assert [(e.name, e.ts, e.dur) for e in events] == [
            ("a/1", 0, 10), ("b/2", 10, 15)]

    def test_zero_length_slice_not_recorded(self):
        tracer = Tracer()
        tracer.begin_slice("calls", "a/1", 5)
        tracer.begin_slice("calls", "b/2", 5)   # a/1 lasted 0 steps
        tracer.finish(9)
        assert [e.name for e in tracer.events("calls")] == ["b/2"]

    def test_merged_events_sorted_by_ts(self):
        tracer = Tracer()
        tracer.instant("stacks", "late", 100)
        tracer.counter("cache", "hit_ratio", 50, 97.0)
        tracer.complete("calls", "a/1", 0, 10)
        assert [e.ts for e in tracer.events()] == [0, 50, 100]


class TestJsonlRoundTrip:
    def _tracer(self) -> Tracer:
        tracer = Tracer(capacity=16)
        tracer.complete("calls", "a/1", 0, 10, {"module": "control"})
        tracer.instant("stacks", "top.local", 4)
        tracer.counter("cache", "hit_ratio", 8, 96.5)
        return tracer

    def test_round_trip_preserves_events(self):
        tracer = self._tracer()
        buf = io.StringIO()
        written = tracer.to_jsonl(buf)
        meta, events = read_jsonl(buf.getvalue().splitlines())
        assert written == len(events) == 3
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["clock"] == "microsteps"
        assert meta["step_ns"] == STEP_NS
        assert events == tracer.events()

    def test_every_line_is_json(self):
        buf = io.StringIO()
        self._tracer().to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4            # header + 3 events
        for line in lines:
            json.loads(line)

    def test_event_equality_is_structural(self):
        a = TraceEvent(1, 2, "X", "calls", "p/1", {"k": 1})
        b = TraceEvent(1, 2, "X", "calls", "p/1", {"k": 1})
        c = TraceEvent(1, 3, "X", "calls", "p/1", {"k": 1})
        assert a == b
        assert a != c


class TestChromeExport:
    def test_valid_trace_event_json(self):
        tracer = Tracer()
        tracer.complete("calls", "a/1", 0, 10)
        tracer.instant("stacks", "top.local", 4)
        tracer.counter("cache", "hit_ratio", 8, 96.5)
        buf = io.StringIO()
        count = tracer.to_chrome(buf, process_name="unit")
        doc = json.loads(buf.getvalue())
        assert count == 3
        events = doc["traceEvents"]
        # 1 process_name + 3 thread_name metadata events + 3 events
        assert len(events) == 7
        metadata = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} == {e["name"] for e in metadata}
        span = next(e for e in events if e["ph"] == "X")
        assert span["name"] == "a/1"
        # 10 steps at STEP_NS ns/step, exported in microseconds
        assert span["dur"] == pytest.approx(10 * STEP_NS / 1000.0)
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"value": 96.5}
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_tracks_get_distinct_threads(self):
        tracer = Tracer()
        tracer.complete("calls", "a/1", 0, 1)
        tracer.complete("micro", "proceed", 0, 1)
        buf = io.StringIO()
        tracer.to_chrome(buf)
        doc = json.loads(buf.getvalue())
        tids = {e["cat"]: e["tid"] for e in doc["traceEvents"] if "cat" in e}
        assert len(set(tids.values())) == 2


def test_dropped_counts_survive_metadata():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.instant("stacks", "x", i)
    assert tracer.dropped == {"stacks": 3}
    assert tracer.metadata()["dropped"] == {"stacks": 3}
    assert len(tracer) == 2


def test_chrome_timestamps_print_as_rounded_floats():
    """The integer formatting of Chrome timestamps is the text
    ``json.dumps`` gives the rounded float, near zero and far out."""
    from repro.obs.trace import _micros

    steps = [*range(2000), 10 ** 9 + 7, 123456789012, 10 ** 14 // STEP_NS,
             10 ** 15]
    for n in steps:
        assert _micros(n) == json.dumps(round(n * STEP_NS / 1000.0, 3))
