"""Unit and property tests for the PMMS cache model."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import AREAS, Area, encode_address
from repro.core.micro import CMD_BY_CODE, CacheCmd
from repro.memsys import Cache, CacheConfig, WritePolicy, count_entries_packed

R = CacheCmd.READ
W = CacheCmd.WRITE
WS = CacheCmd.WRITE_STACK


def addr(offset, area=Area.HEAP):
    return encode_address(area, offset)


class TestConfig:
    def test_default_is_paper_spec(self):
        config = CacheConfig()
        assert config.capacity_words == 8192
        assert config.ways == 2
        assert config.block_words == 4
        assert config.policy == WritePolicy.STORE_IN
        assert config.sets == 1024

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_words=100)       # not multiple of ways*block
        with pytest.raises(ValueError):
            CacheConfig(capacity_words=4, ways=2)  # smaller than one set
        with pytest.raises(ValueError):
            CacheConfig(policy="write-weird")


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = Cache()
        assert cache.access(R, addr(0)) is False
        assert cache.access(R, addr(0)) is True

    def test_block_granularity(self):
        cache = Cache()
        cache.access(R, addr(0))
        # words 1-3 share the 4-word block
        assert cache.access(R, addr(1)) is True
        assert cache.access(R, addr(3)) is True
        assert cache.access(R, addr(4)) is False

    def test_distinct_areas_do_not_alias(self):
        cache = Cache()
        cache.access(R, addr(0, Area.HEAP))
        assert cache.access(R, addr(0, Area.GLOBAL)) is False

    def test_lru_within_set(self):
        # direct conflict: 3 blocks mapping to the same set of 2 ways
        config = CacheConfig(capacity_words=8, ways=2, block_words=4)
        cache = Cache(config)  # one set
        cache.access(R, addr(0))
        cache.access(R, addr(4))
        cache.access(R, addr(0))          # 0 is MRU now
        cache.access(R, addr(8))          # evicts 4
        assert cache.access(R, addr(0)) is True
        assert cache.access(R, addr(4)) is False

    def test_per_area_stats(self):
        cache = Cache()
        cache.access(R, addr(0, Area.LOCAL))
        cache.access(R, addr(0, Area.LOCAL))
        stats = cache.stats
        assert stats.per_area[Area.LOCAL].hits == 1
        assert stats.per_area[Area.LOCAL].misses == 1
        assert stats.per_area[Area.LOCAL].hit_ratio == 50.0

    def test_unused_area_reports_100(self):
        cache = Cache()
        assert cache.stats.area_hit_ratio(Area.TRAIL) == 100.0


class TestWriteBehaviour:
    def test_write_stack_miss_skips_fetch(self):
        cache = Cache()
        cache.access(WS, addr(0))
        assert cache.stats.block_fetches == 0
        # but the block is now resident
        assert cache.access(R, addr(0)) is True

    def test_plain_write_miss_fetches(self):
        cache = Cache()
        cache.access(W, addr(0))
        assert cache.stats.block_fetches == 1

    def test_dirty_eviction_writes_back(self):
        config = CacheConfig(capacity_words=8, ways=2, block_words=4)
        cache = Cache(config)
        cache.access(W, addr(0))       # dirty
        cache.access(R, addr(4))
        cache.access(R, addr(8))       # evicts block 0 (LRU), dirty
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        config = CacheConfig(capacity_words=8, ways=2, block_words=4)
        cache = Cache(config)
        cache.access(R, addr(0))
        cache.access(R, addr(4))
        cache.access(R, addr(8))
        assert cache.stats.writebacks == 0

    def test_store_through_counts_word_writes(self):
        cache = Cache(CacheConfig(policy=WritePolicy.STORE_THROUGH))
        cache.access(W, addr(0))       # miss, no allocate
        assert cache.stats.through_writes == 1
        assert cache.access(R, addr(0)) is False   # was not allocated
        cache.access(W, addr(0))       # hit after the read allocated it
        assert cache.stats.through_writes == 2

    def test_store_through_never_writes_back(self):
        config = CacheConfig(capacity_words=8, ways=2, block_words=4,
                             policy=WritePolicy.STORE_THROUGH)
        cache = Cache(config)
        cache.access(R, addr(0))
        cache.access(W, addr(0))
        cache.access(R, addr(4))
        cache.access(R, addr(8))
        assert cache.stats.writebacks == 0

    def test_flush_writes_back_all_dirty(self):
        cache = Cache()
        cache.access(W, addr(0))
        cache.access(W, addr(16))
        assert cache.flush() == 2
        assert cache.flush() == 0


class TestInvariants:
    @given(st.lists(st.tuples(
        st.sampled_from([R, W, WS]),
        st.integers(min_value=0, max_value=2000),
        st.sampled_from(list(Area))), max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = Cache(CacheConfig(capacity_words=64, ways=2, block_words=4))
        for cmd, offset, area in accesses:
            cache.access(cmd, addr(offset, area))
        stats = cache.stats
        assert stats.hits + stats.misses == len(accesses)
        per_cmd = sum(stats.per_cmd_hits.values()) + sum(stats.per_cmd_misses.values())
        assert per_cmd == len(accesses)

    @given(st.lists(st.integers(min_value=0, max_value=511), min_size=1,
                    max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_capacity_monotonicity_fully_associative(self, offsets):
        """For fully-associative LRU, a larger cache never hits less
        (inclusion property)."""
        small = Cache(CacheConfig(capacity_words=16, ways=4, block_words=4))
        large = Cache(CacheConfig(capacity_words=64, ways=16, block_words=4))
        for offset in offsets:
            small.access(R, addr(offset))
            large.access(R, addr(offset))
        assert large.stats.hits >= small.stats.hits

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_resident_blocks_bounded(self, offsets):
        config = CacheConfig(capacity_words=32, ways=2, block_words=4)
        cache = Cache(config)
        for offset in offsets:
            cache.access(R, addr(offset))
        assert cache.resident_blocks <= config.capacity_words // config.block_words

    def test_reset_clears_everything(self):
        cache = Cache()
        cache.access(W, addr(0))
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_blocks == 0
        assert cache.access(R, addr(0)) is False


#: One access drawn from a small pool (two areas, 48 words each), so
#: blocks recur: MRU hits, hits on an older way, dirty evictions and a
#: read after a store-through write miss of the same block all occur.
pooled_access = st.tuples(st.sampled_from([R, W, WS]),
                          st.sampled_from([Area.HEAP, Area.LOCAL]),
                          st.integers(min_value=0, max_value=47))


@st.composite
def kernel_cases(draw):
    """A geometry, a trace, and the cuts of a segmented replay with one
    per-access call between two segments."""
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    block_words = draw(st.sampled_from([1, 4, 8]))
    config = CacheConfig(
        capacity_words=ways * block_words * draw(st.integers(1, 16)),
        ways=ways, block_words=block_words,
        policy=draw(st.sampled_from([WritePolicy.STORE_IN,
                                     WritePolicy.STORE_THROUGH])),
        write_stack_no_fetch=draw(st.booleans()))
    trace = draw(st.lists(pooled_access, max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(trace)), max_size=4)))
    between = draw(st.lists(pooled_access, min_size=len(cuts),
                            max_size=len(cuts)))
    return config, trace, cuts, between


def stats_fields(stats):
    return ({area: (c.hits, c.misses) for area, c in stats.per_area.items()},
            dict(stats.per_cmd_hits), dict(stats.per_cmd_misses),
            stats.block_fetches, stats.writebacks, stats.through_writes)


class TestPackedKernel:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_segmented_packed_replay_matches_per_access(self, case):
        """``access_many_packed`` replayed segment by segment the way
        ``CacheWindowSampler.replay`` does it (zero totals, the real
        totals last), with an ``access`` call between two segments,
        equals a pure per-access replay: every statistic and the final
        LRU order of every set."""
        config, trace, cuts, between = case
        data = array("q", [addr(offset, area) << 2 | cmd.code
                           for cmd, area, offset in trace])
        zero = ([0] * len(AREAS), [0] * len(CMD_BY_CODE))
        kernel, reference = Cache(config), Cache(config)
        start = 0
        for cut, (cmd, area, offset) in zip(cuts, between):
            kernel.access_many_packed(data[start:cut], totals=zero)
            kernel.access(cmd, addr(offset, area))
            for ref_cmd, ref_area, ref_offset in trace[start:cut]:
                reference.access(ref_cmd, addr(ref_offset, ref_area))
            reference.access(cmd, addr(offset, area))
            start = cut
        kernel.access_many_packed(data[start:],
                                  totals=count_entries_packed(data))
        for cmd, area, offset in trace[start:]:
            reference.access(cmd, addr(offset, area))

        assert stats_fields(kernel.stats) == stats_fields(reference.stats)
        assert ([list(ways.items()) for ways in kernel._sets]
                == [list(ways.items()) for ways in reference._sets])
