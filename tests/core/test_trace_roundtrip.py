"""TraceRecorder serialisation and random-access: lossless, equivalent.

The packed trace crosses process boundaries (worker hand-off) and
sessions (persistent run cache) as ``tobytes()`` output, and the
time-travel explorer seeks through it via ``entry``/``segment`` —
all of which must agree exactly with the canonical ``decoded()`` view.
"""

import pytest

from repro.core.memory import AREA_SHIFT, Area, TraceRecorder
from repro.core.micro import CMD_BY_CODE, CacheCmd


def _recorded() -> TraceRecorder:
    trace = TraceRecorder()
    for offset in range(50):
        trace.access(CacheCmd.READ, (Area.HEAP << AREA_SHIFT) | offset)
        trace.access(CacheCmd.WRITE_STACK,
                     (Area.CONTROL << AREA_SHIFT) | offset)
        trace.access(CacheCmd.WRITE, (Area.GLOBAL << AREA_SHIFT) | (offset * 3))
    return trace


class TestBytesRoundtrip:
    def test_tobytes_frombytes_is_lossless(self):
        trace = _recorded()
        rebuilt = TraceRecorder.frombytes(trace.tobytes())
        assert rebuilt.data == trace.data
        assert rebuilt.decoded() == trace.decoded()

    def test_empty_trace_roundtrips(self):
        rebuilt = TraceRecorder.frombytes(TraceRecorder().tobytes())
        assert len(rebuilt) == 0

    def test_workload_trace_roundtrips(self):
        from repro.eval.runner import run_spec

        trace = run_spec("nreverse", "faithful", record_trace=True).trace
        rebuilt = TraceRecorder.frombytes(trace.tobytes())
        assert rebuilt.data == trace.data
        assert list(rebuilt.entries()) == rebuilt.decoded() == trace.decoded()


class TestRandomAccess:
    def test_entry_matches_decoded(self):
        trace = _recorded()
        decoded = trace.decoded()
        for index in (0, 1, 75, len(trace) - 1):
            cmd, address = trace.entry(index)
            assert (cmd, address) == decoded[index]
            assert cmd is CMD_BY_CODE[trace.data[index] & 3]

    def test_segment_is_the_packed_slice(self):
        trace = _recorded()
        segment = trace.segment(10, 40)
        assert list(segment) == list(trace.data[10:40])
        segment[0] = 0                          # a copy, not a view
        assert trace.data[10] != 0

    def test_segments_tile_the_trace(self):
        trace = _recorded()
        stitched = []
        for start in range(0, len(trace), 17):
            stitched.extend(trace.segment(start, start + 17))
        assert stitched == list(trace.data)
