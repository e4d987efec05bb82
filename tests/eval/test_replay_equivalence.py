"""Replay equivalence: the batched single-pass path vs the reference.

``simulate_many`` (decode once, ``Cache.access_many``, miss-only
counting) must produce **bit-identical** ``CacheStats`` to N independent
``simulate`` calls — over real workload traces, for all of Figure 1's
capacities and both §4.2 ablation pairs.  Any divergence would silently
corrupt the paper's reported numbers, so the comparison is exhaustive:
every per-area counter, every per-command counter, every event count.
"""

from dataclasses import replace

import pytest

from repro.eval import runner
from repro.memsys import CacheConfig, WritePolicy
from repro.tools.pmms import (
    FIGURE1_CAPACITIES,
    capacity_sweep,
    simulate,
    simulate_many,
)

WORKLOADS = ["lcp-2", "bup-1"]


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
    def test_figure1_capacities_bit_identical(self, trace):
        configs = figure1_configs()
        batched = simulate_many(trace, configs)
        for config, stats in zip(configs, batched):
            assert_stats_identical(simulate(trace, config), stats,
                                   f"capacity {config.capacity_words}")

    def test_ablation_pairs_bit_identical(self, trace):
        configs = ablation_configs()
        batched = simulate_many(trace, configs)
        for config, stats in zip(configs, batched):
            assert_stats_identical(
                simulate(trace, config), stats,
                f"{config.capacity_words}w/{config.ways}way/{config.policy}")

    def test_decoded_entries_accepted(self, trace):
        """Studies accept a pre-decoded entry list in place of the trace."""
        (from_trace,) = simulate_many(trace, [CacheConfig()])
        (from_entries,) = simulate_many(trace.decoded(), [CacheConfig()])
        assert_stats_identical(from_trace, from_entries, "decoded input")

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
    def test_totals_offload_matches_self_counting(self, trace):
        """access_many with precomputed totals == access_many without."""
        from repro.memsys import Cache, count_entries

        entries = trace.decoded()
        with_totals = Cache(CacheConfig())
        with_totals.access_many(entries, count_entries(entries))
        self_counting = Cache(CacheConfig())
        self_counting.access_many(entries)
        assert_stats_identical(self_counting.stats, with_totals.stats,
                               "totals offload")

    def test_packed_self_counting_matches_reference(self, trace):
        """access_many_packed without totals == the per-access reference."""
        from repro.memsys import Cache, count_entries_packed

        for config in ablation_configs():
            packed = Cache(config)
            packed.access_many_packed(trace.data)
            assert_stats_identical(simulate(trace, config), packed.stats,
                                   f"packed self-counting {config.policy}")

    def test_count_entries_packed_matches_decoded(self, trace):
        from repro.memsys import count_entries, count_entries_packed

        area_d, cmd_d = count_entries(trace.decoded())
        area_p, cmd_p = count_entries_packed(trace.data)
        assert list(area_p) == [area_d[i] for i in sorted(area_d)]
        from repro.core.micro import CMD_BY_CODE
        assert list(cmd_p) == [cmd_d[cmd] for cmd in CMD_BY_CODE]
