"""Unit tests for memory areas, addressing and trace recording."""

import pytest

from repro.core.memory import (
    Area,
    MemorySystem,
    TraceRecorder,
    decode_address,
    encode_address,
)
from repro.core.micro import CacheCmd
from repro.core.stats import NullStats, StatsCollector
from repro.core.words import Tag
from repro.errors import MachineError


@pytest.fixture
def mem():
    return MemorySystem(StatsCollector())


class TestAddressing:
    def test_roundtrip(self):
        for area in Area:
            for offset in (0, 1, 12345, (1 << 24) - 1):
                assert decode_address(encode_address(area, offset)) == (area, offset)

    def test_areas_disjoint(self):
        a = encode_address(Area.HEAP, 100)
        b = encode_address(Area.GLOBAL, 100)
        assert a != b

    def test_area_labels(self):
        assert Area.HEAP.label == "heap"
        assert Area.TRAIL.label == "trail stack"


class TestMemorySystem:
    def test_write_stack_appends_and_bills(self, mem):
        offset = mem.write_stack(Area.LOCAL, (Tag.INT, 1))
        assert offset == 0
        assert mem.read(Area.LOCAL, 0) == (Tag.INT, 1)
        counts = mem.stats.mem_counts
        assert counts[(CacheCmd.WRITE_STACK, Area.LOCAL)] == 1
        assert counts[(CacheCmd.READ, Area.LOCAL)] == 1

    def test_write_in_place(self, mem):
        mem.write_stack(Area.GLOBAL, (Tag.INT, 1))
        mem.write(Area.GLOBAL, 0, (Tag.INT, 2))
        assert mem.peek(Area.GLOBAL, 0) == (Tag.INT, 2)

    def test_settop_truncates(self, mem):
        for i in range(5):
            mem.write_stack(Area.TRAIL, (Tag.INT, i))
        mem.settop(Area.TRAIL, 2)
        assert mem.top(Area.TRAIL) == 2

    def test_settop_beyond_top_raises(self, mem):
        with pytest.raises(MachineError):
            mem.settop(Area.TRAIL, 5)

    def test_grow_is_unbilled(self, mem):
        base = mem.grow(Area.HEAP, 10)
        assert base == 0
        assert mem.top(Area.HEAP) == 10
        assert not mem.stats.mem_counts

    def test_word_limit_enforced(self):
        small = MemorySystem(NullStats(), word_limit=4)
        for _ in range(4):
            small.write_stack(Area.LOCAL, (Tag.INT, 0))
        with pytest.raises(MachineError):
            small.write_stack(Area.LOCAL, (Tag.INT, 0))


class TestListeners:
    def test_trace_recorder_roundtrip(self, mem):
        trace = TraceRecorder()
        mem.record(trace)
        mem.write_stack(Area.LOCAL, (Tag.INT, 0))
        mem.read(Area.LOCAL, 0)
        mem.write(Area.LOCAL, 0, (Tag.INT, 1))
        entries = list(trace.entries())
        assert entries == [
            (CacheCmd.WRITE_STACK, encode_address(Area.LOCAL, 0)),
            (CacheCmd.READ, encode_address(Area.LOCAL, 0)),
            (CacheCmd.WRITE, encode_address(Area.LOCAL, 0)),
        ]

    def test_detach_stops_recording(self, mem):
        trace = TraceRecorder()
        mem.record(trace)
        mem.write_stack(Area.LOCAL, (Tag.INT, 0))
        mem.record(None)
        assert mem._packed_append is None
        mem.read(Area.LOCAL, 0)
        assert len(trace) == 1

    def test_record_replaces_sink(self, mem):
        first, second = TraceRecorder(), TraceRecorder()
        mem.record(first)
        mem.write_stack(Area.LOCAL, (Tag.INT, 0))
        mem.record(second)
        mem.read(Area.LOCAL, 0)
        assert len(first) == 1
        assert list(second.entries()) == [
            (CacheCmd.READ, encode_address(Area.LOCAL, 0))]

    def test_clear(self):
        trace = TraceRecorder()
        trace.access(CacheCmd.READ, 42)
        trace.clear()
        assert len(trace) == 0
