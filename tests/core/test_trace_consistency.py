"""Cross-checks between the stats collector and the memory trace.

The same access stream feeds Table 3/4 (stats counters) and Table 5
(trace replay); these tests pin the two views together on real runs.
"""

import pytest

from repro.core import PSIMachine
from repro.core.memory import Area, TraceRecorder, decode_address
from repro.core.micro import CacheCmd

PROGRAM = """
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
perm([], []).
perm(L, [H|T]) :- sel(H, L, R), perm(R, T).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
"""


@pytest.fixture
def run():
    machine = PSIMachine()
    machine.consult(PROGRAM)
    trace = TraceRecorder()
    machine.mem.record(trace)
    assert machine.solve("perm([1,2,3,4], P)").count() == 24
    machine.mem.record(None)
    return machine, trace


class TestTraceMatchesCounters:
    def test_total_access_count(self, run):
        machine, trace = run
        assert len(trace) == machine.stats.total_mem_accesses

    def test_per_command_counts(self, run):
        machine, trace = run
        from collections import Counter
        by_cmd = Counter(cmd for cmd, _ in trace.entries())
        expected = machine.stats.cache_command_counts()
        for cmd in CacheCmd:
            assert by_cmd.get(cmd, 0) == expected[cmd]

    def test_per_area_counts(self, run):
        machine, trace = run
        from collections import Counter
        by_area = Counter(decode_address(addr)[0]
                          for _, addr in trace.entries())
        expected = machine.stats.area_access_counts()
        for area in Area:
            assert by_area.get(area, 0) == expected.get(area, 0)

    def test_addresses_within_area_tops_seen(self, run):
        machine, trace = run
        # Every traced offset was a legal offset at some point; in
        # particular none exceeds the area's high-water mark.
        high_water = {area: 0 for area in Area}
        for _, addr in trace.entries():
            area, offset = decode_address(addr)
            high_water[area] = max(high_water[area], offset)
        for area in (Area.GLOBAL, Area.LOCAL, Area.TRAIL):
            # Stacks shrink after the run; high-water must be at least
            # the final top.
            assert high_water[area] >= machine.mem.top(area) - 1 \
                or machine.mem.top(area) == 0

    def test_mem_access_rate_in_plausible_band(self, run):
        machine, _ = run
        rate = machine.stats.total_mem_accesses / machine.stats.total_steps
        assert 0.10 < rate < 0.40
