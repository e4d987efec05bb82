"""Structured event tracer: ring-buffered spans on a deterministic clock.

The paper's console tools sampled the PSI's *microinstruction stream*;
this tracer does the modern equivalent for the reproduction.  Events
are timestamped in **cumulative microsteps** (the machine's own clock,
see :class:`~repro.obs.session.ObservedStatsCollector`), never in
wall-clock time, so two executions of the same workload produce
byte-identical traces — observability output is a pure function of the
run, which keeps it compatible with the PR-1 deterministic evaluation
pipeline (traces are *derived* from execution; they are never stored in
the run cache).

Event kinds (the ``ph`` field follows the Chrome ``trace_event``
phases so the export is mechanical):

* ``"X"`` — a *complete span*: something was active from ``ts`` for
  ``dur`` microsteps (goal-resolution slices per predicate, sampled
  microroutine emissions);
* ``"i"`` — an *instant*: a point event (stack reclaims, cache
  writeback bursts);
* ``"C"`` — a *counter* sample: a named value over time (windowed
  cache hit ratio, stack tops).

Events are buffered per track in fixed-capacity :class:`RingBuffer`\\ s
so tracing arbitrarily long runs is O(capacity) memory; overflow drops
the *oldest* events and counts them (``dropped``), which a trailing
``metadata`` record reports.  Counter samples, most of a run's events,
are buffered as plain ``(ts, name, value)`` tuples and become
:class:`TraceEvent` objects only when :meth:`Tracer.events` is read.

Exports:

* :meth:`Tracer.to_jsonl` — one JSON object per line, the schema
  documented in ``docs/OBSERVABILITY.md`` (machine-consumable,
  round-trips through :func:`read_jsonl`);
* :meth:`Tracer.to_chrome` — a Chrome ``trace_event`` JSON object
  (``{"traceEvents": [...]}``) loadable in Perfetto / chrome://tracing,
  with one nanosecond of display time per :data:`STEP_NS` modelled
  nanoseconds.
"""

from __future__ import annotations

import json
from collections import deque
from operator import itemgetter
from typing import IO, Iterable, Iterator

from repro.memsys.timing import CYCLE_NS

#: Modelled nanoseconds per microstep (the PSI's 200 ns cycle).  Chrome
#: trace timestamps are microseconds, so one microstep renders as
#: ``CYCLE_NS / 1000`` µs of display time.
STEP_NS = CYCLE_NS

#: JSONL schema version, carried by the metadata record.
SCHEMA_VERSION = 1

#: Encoder of the JSONL event lines, built once: ``json.dumps`` with
#: keyword arguments constructs a fresh encoder per call.
_JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class RingBuffer:
    """Fixed-capacity event buffer; overflow evicts the oldest entry.

    A bounded :class:`~collections.deque` plus an eviction count: it
    allocates nothing up front, and an append stores only the item.
    """

    __slots__ = ("capacity", "_items", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.dropped = 0        # evicted entries

    def append(self, item) -> None:
        items = self._items
        if len(items) == self.capacity:
            self.dropped += 1
        items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        """Yield live entries oldest-first."""
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
        self.dropped = 0


class TraceEvent:
    """One trace record.  ``ts``/``dur`` are in microsteps."""

    __slots__ = ("ts", "dur", "ph", "track", "name", "args")

    def __init__(self, ts: int, dur: int, ph: str, track: str, name: str,
                 args: dict | None = None):
        self.ts = ts
        self.dur = dur
        self.ph = ph
        self.track = track
        self.name = name
        self.args = args

    def to_dict(self) -> dict:
        record = {"ts": self.ts, "ph": self.ph, "track": self.track,
                  "name": self.name}
        if self.ph == "X":
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        return cls(record["ts"], record.get("dur", 0), record["ph"],
                   record["track"], record["name"], record.get("args"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"TraceEvent(ts={self.ts}, ph={self.ph!r}, "
                f"track={self.track!r}, name={self.name!r})")


#: The tracks the session instruments.  Anything may open new tracks;
#: these names are the documented schema.
TRACK_CALLS = "calls"        # goal-resolution predicate slices
TRACK_MICRO = "micro"        # sampled microroutine emissions
TRACK_CACHE = "cache"        # windowed cache transactions
TRACK_STACKS = "stacks"      # stack-area growth / reclaim events


class Tracer:
    """Collects spans, instants and counter samples into ring buffers."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._buffers: dict[str, RingBuffer] = {}
        self._open: dict[str, tuple[int, str, dict | None]] = {}

    # -- recording -----------------------------------------------------------

    def buffer(self, track: str) -> RingBuffer:
        """The track's ring buffer, created on first use.

        Creation order is the order :meth:`events` merges tracks in, so
        it breaks timestamp ties between tracks.
        """
        buffer = self._buffers.get(track)
        if buffer is None:
            buffer = self._buffers[track] = RingBuffer(self.capacity)
        return buffer

    def complete(self, track: str, name: str, ts: int, dur: int,
                 args: dict | None = None) -> None:
        """Record a complete span (start ``ts``, length ``dur`` steps)."""
        self.buffer(track).append(TraceEvent(ts, dur, "X", track, name, args))

    def instant(self, track: str, name: str, ts: int,
                args: dict | None = None) -> None:
        self.buffer(track).append(TraceEvent(ts, 0, "i", track, name, args))

    def counter(self, track: str, name: str, ts: int, value: float) -> None:
        """Record a counter sample.

        Counter samples are stored compact, as ``(ts, name, value)``
        tuples; :meth:`events` reads them as ``"C"`` events with
        ``args`` ``{"value": value}``, and the exports format them
        directly.
        """
        self.buffer(track).append((ts, name, value))

    def begin_slice(self, track: str, name: str, ts: int,
                    args: dict | None = None) -> None:
        """Open a slice on ``track``; implicitly ends any open slice.

        Tracks used through this interface form a flat timeline of
        back-to-back slices — exactly how the "which predicate is
        resolving right now" strip is built.
        """
        self.end_slice(track, ts)
        self._open[track] = (ts, name, args)

    def end_slice(self, track: str, ts: int) -> None:
        open_slice = self._open.pop(track, None)
        if open_slice is None:
            return
        begin, name, args = open_slice
        if ts > begin:
            self.complete(track, name, begin, ts - begin, args)

    def finish(self, ts: int) -> None:
        """Close every open slice at ``ts`` (end of run)."""
        for track in list(self._open):
            self.end_slice(track, ts)

    # -- inspection ----------------------------------------------------------

    def events(self, track: str | None = None) -> list[TraceEvent]:
        """Live events, oldest-first (one track, or all tracks by ts)."""
        if track is not None:
            buffer = self._buffers.get(track)
            return ([_event(track, record) for record in buffer]
                    if buffer is not None else [])
        return [_event(track, record) for _, track, record in self._merged()]

    def _merged(self) -> list[tuple]:
        """Every live record as ``(ts, track, record)``, sorted by ts.

        The sort is stable, so ties keep track creation order, then
        record order.
        """
        merged = [(record[0] if type(record) is tuple else record.ts,
                   track, record)
                  for track, buffer in self._buffers.items()
                  for record in buffer]
        merged.sort(key=itemgetter(0))
        return merged

    @property
    def dropped(self) -> dict[str, int]:
        return {track: buffer.dropped
                for track, buffer in self._buffers.items() if buffer.dropped}

    def __len__(self) -> int:
        return sum(len(buffer) for buffer in self._buffers.values())

    # -- export --------------------------------------------------------------

    def metadata(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "clock": "microsteps",
            "step_ns": STEP_NS,
            "events": len(self),
            "dropped": self.dropped,
        }

    def to_jsonl(self, fp: IO[str]) -> int:
        """Write every event as one JSON object per line.

        The first line is a ``{"meta": {...}}`` header (schema version,
        clock definition, drop counts); each following line is one
        :meth:`TraceEvent.to_dict` record, keys sorted, no spaces.
        Lines are assembled from a per-(track, name, phase) fragment
        plus the event's numbers; no record dict is built.  Returns the
        event count.
        """
        merged = self._merged()
        encode = _JSONL_ENCODER.encode
        fragments: dict = {}
        lines = [json.dumps({"meta": self.metadata()}, separators=(",", ":"))]
        append = lines.append
        for ts, track, record in merged:
            compact = type(record) is tuple      # a counter sample
            name, ph = (record[1], "C") if compact else (record.name,
                                                         record.ph)
            key = (track, name, ph)
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = (
                    f'"name":{encode(name)},"ph":{encode(ph)},'
                    f'"track":{encode(track)},"ts":')
            if compact:
                value = record[2]
                if type(value) is not int:
                    value = encode(value)
                append(f'{{"args":{{"value":{value}}},{fragment}{ts}}}')
                continue
            if ph == "X":
                fragment = f'"dur":{record.dur},{fragment}'
            if record.args:
                append(f'{{"args":{encode(record.args)},{fragment}{ts}}}')
            else:
                append(f'{{{fragment}{ts}}}')
        append("")
        fp.write("\n".join(lines))
        return len(merged)

    def to_chrome(self, fp: IO[str], process_name: str = "PSI") -> int:
        """Write a Chrome ``trace_event`` JSON object for Perfetto.

        Each track becomes one thread of pid 0 (named via ``M``
        metadata events); microstep timestamps convert to microseconds
        of modelled time (``STEP_NS`` per step, rounded to 3 places).
        The text is what ``json.dumps`` makes of the records, built
        like :meth:`to_jsonl`'s lines.  Returns the event count
        (excluding metadata events).
        """
        dumps = json.dumps
        tids: dict[str, int] = {}
        fragments: dict = {}
        records = ['{"ph": "M", "pid": 0, "tid": 0, "name": "process_name", '
                   f'"args": {{"name": {dumps(process_name)}}}}}']
        append = records.append
        merged = self._merged()
        for ts, track, record in merged:
            compact = type(record) is tuple      # a counter sample
            name, ph = (record[1], "C") if compact else (record.name,
                                                         record.ph)
            key = (track, name, ph)
            fragment = fragments.get(key)
            if fragment is None:
                tid = tids.get(track)
                if tid is None:
                    tid = tids[track] = len(tids) + 1
                    append('{"ph": "M", "pid": 0, "tid": %d, '
                           '"name": "thread_name", "args": {"name": %s}}'
                           % (tid, dumps(track)))
                fragment = fragments[key] = (
                    f'{{"ph": {dumps(ph)}, "pid": 0, "tid": {tid}, "ts": ',
                    f', "name": {dumps(name)}, "cat": {dumps(track)}'
                    + (', "s": "t"' if ph == "i" else ""))
            head, middle = fragment
            if compact:
                value = record[2]
                if type(value) is not int:
                    value = dumps(value)
                append(f'{head}{_micros(ts)}{middle}, '
                       f'"args": {{"value": {value}}}}}')
                continue
            if ph == "X":
                middle = f'{middle}, "dur": {_micros(max(record.dur, 1))}'
            if record.args:
                append(f'{head}{_micros(ts)}{middle}, '
                       f'"args": {dumps(record.args)}}}')
            else:
                append(f'{head}{_micros(ts)}{middle}}}')
        fp.write(f'{{"traceEvents": [{", ".join(records)}], '
                 f'"displayTimeUnit": "ms", "metadata": '
                 f'{dumps(self.metadata())}}}')
        return len(merged)


def _event(track: str, record) -> TraceEvent:
    """A buffered record as a :class:`TraceEvent` (counter samples are
    stored compact; see :meth:`Tracer.counter`)."""
    if type(record) is tuple:
        ts, name, value = record
        return TraceEvent(ts, 0, "C", track, name, {"value": value})
    return record


#: ``_FRACTION[r]``: the digits ``repr`` prints after the point of a
#: float with ``r`` thousandths
_FRACTION = tuple(f"{r:03d}".rstrip("0") or "0" for r in range(1000))

#: Below this many steps a Chrome timestamp has at most 14 significant
#: digits, so the nearest float prints as the exact decimal.
_EXACT_STEPS = 10 ** 14 // STEP_NS


def _micros(steps: int) -> str:
    """The Chrome-trace text of ``steps`` microsteps in microseconds:
    ``repr(round(steps * STEP_NS / 1000, 3))``, as ``json.dumps`` prints
    that float, formatted from integers where that is exact."""
    if type(steps) is int and 0 <= steps < _EXACT_STEPS:
        whole, part = divmod(steps * STEP_NS, 1000)
        return f"{whole}.{_FRACTION[part]}"
    return repr(round(steps * (STEP_NS / 1000.0), 3))


def read_jsonl(lines: Iterable[str]) -> tuple[dict, list[TraceEvent]]:
    """Parse :meth:`Tracer.to_jsonl` output back into (metadata, events)."""
    meta: dict = {}
    events: list[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "meta" in record and "ph" not in record:
            meta = record["meta"]
        else:
            events.append(TraceEvent.from_dict(record))
    return meta, events
