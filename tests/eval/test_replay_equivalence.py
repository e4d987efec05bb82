"""Replay equivalence: the batched single-pass path vs the reference.

``simulate_many`` (one ``Cache.access_many_packed`` pass per config over
the raw packed trace, miss-only counting, per-set MRU fast path) must
produce **bit-identical** ``CacheStats`` to N independent ``simulate``
calls — over real workload traces, for all of Figure 1's
capacities and both §4.2 ablation pairs.  Any divergence would silently
corrupt the paper's reported numbers, so the comparison is exhaustive:
every per-area counter, every per-command counter, every event count.
"""

from dataclasses import replace

import pytest

from repro.core.memory import AREA_SHIFT, Area
from repro.eval import runner
from repro.memsys import CacheConfig, WritePolicy
from repro.tools.pmms import (
    FIGURE1_CAPACITIES,
    capacity_sweep,
    simulate,
    simulate_many,
)

WORKLOADS = ["lcp-2", "bup-1"]
#: The bit-identical tests also replay Figure 1's own workload, whose
#: trace is the largest of the three (hence ``slow``).
BIT_IDENTICAL = [*WORKLOADS, pytest.param("window-1", marks=pytest.mark.slow)]


def assert_stats_identical(reference, batched, context):
    __tracebackhide__ = True
    for area in reference.per_area:
        ref, got = reference.per_area[area], batched.per_area[area]
        assert (ref.hits, ref.misses) == (got.hits, got.misses), \
            f"{context}: area {area.label} diverged"
    for cmd in reference.per_cmd_hits:
        assert reference.per_cmd_hits[cmd] == batched.per_cmd_hits[cmd], \
            f"{context}: {cmd.value} hits diverged"
        assert reference.per_cmd_misses[cmd] == batched.per_cmd_misses[cmd], \
            f"{context}: {cmd.value} misses diverged"
    assert reference.block_fetches == batched.block_fetches, context
    assert reference.writebacks == batched.writebacks, context
    assert reference.through_writes == batched.through_writes, context


def figure1_configs():
    base = CacheConfig()
    configs = []
    for capacity in FIGURE1_CAPACITIES:
        ways = min(base.ways, max(1, capacity // base.block_words))
        configs.append(replace(base, capacity_words=capacity, ways=ways))
    return configs


def ablation_configs():
    base = CacheConfig()
    return [
        CacheConfig(capacity_words=8192, ways=2),    # two 4KW sets
        CacheConfig(capacity_words=4096, ways=1),    # one 4KW set
        replace(base, policy=WritePolicy.STORE_IN),
        replace(base, policy=WritePolicy.STORE_THROUGH),
    ]


@pytest.fixture(scope="module", params=WORKLOADS)
def trace(request):
    runner.clear_cache()
    run = runner.run_spec(request.param, "faithful", record_trace=True)
    yield run.trace
    runner.clear_cache()


class TestSimulateManyEquivalence:
    @pytest.mark.parametrize("trace", BIT_IDENTICAL, indirect=True)
    def test_figure1_capacities_bit_identical(self, trace):
        configs = figure1_configs()
        batched = simulate_many(trace, configs)
        for config, stats in zip(configs, batched):
            assert_stats_identical(simulate(trace, config), stats,
                                   f"capacity {config.capacity_words}")

    @pytest.mark.parametrize("trace", BIT_IDENTICAL, indirect=True)
    def test_ablation_pairs_bit_identical(self, trace):
        configs = ablation_configs()
        batched = simulate_many(trace, configs)
        for config, stats in zip(configs, batched):
            assert_stats_identical(
                simulate(trace, config), stats,
                f"{config.capacity_words}w/{config.ways}way/{config.policy}")

    def test_capacity_sweep_matches_reference_points(self, trace):
        """The sweep built on simulate_many reproduces per-point numbers."""
        capacities = (8, 256, 8192)
        points = capacity_sweep(trace, steps=len(trace) * 5,
                                capacities=capacities)
        for point, config in zip(points, (
                CacheConfig(capacity_words=8, ways=2),
                CacheConfig(capacity_words=256, ways=2),
                CacheConfig(capacity_words=8192, ways=2))):
            reference = simulate(trace, config)
            assert point.hit_ratio == reference.hit_ratio


class TestAccessManyIncremental:
    def test_packed_self_counting_matches_reference(self, trace):
        """access_many_packed without totals == the per-access reference."""
        from repro.memsys import Cache

        for config in ablation_configs():
            packed = Cache(config)
            packed.access_many_packed(trace.data)
            assert_stats_identical(simulate(trace, config), packed.stats,
                                   f"packed self-counting {config.policy}")

    def test_count_entries_packed_matches_decoded(self, trace):
        from repro.core.micro import CMD_BY_CODE
        from repro.memsys import count_entries_packed

        area_d = [0] * len(Area)
        cmd_d = dict.fromkeys(CMD_BY_CODE, 0)
        for cmd, address in trace.decoded():
            cmd_d[cmd] += 1
            area_d[address >> AREA_SHIFT] += 1
        area_p, cmd_p = count_entries_packed(trace.data)
        assert list(area_p) == area_d
        assert list(cmd_p) == [cmd_d[cmd] for cmd in CMD_BY_CODE]
