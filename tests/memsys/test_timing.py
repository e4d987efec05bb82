"""Tests for the timing model."""

from repro.core.memory import Area, encode_address
from repro.core.micro import CacheCmd
from repro.memsys import (
    CYCLE_NS,
    Cache,
    CacheConfig,
    MISS_NS,
    TRANSFER_NS,
    execution_time,
    improvement_ratio,
    time_without_cache,
)


class TestExecutionTime:
    def test_no_cache_stats_is_pure_compute(self):
        timing = execution_time(1000, None)
        assert timing.total_ns == 1000 * CYCLE_NS
        assert timing.total_ms == 1000 * CYCLE_NS / 1e6

    def test_miss_stall_accounting(self):
        cache = Cache()
        cache.access(CacheCmd.READ, encode_address(Area.HEAP, 0))   # miss+fetch
        cache.access(CacheCmd.READ, encode_address(Area.HEAP, 0))   # hit
        timing = execution_time(10, cache.stats)
        assert timing.compute_ns == 10 * CYCLE_NS
        assert timing.miss_stall_ns == MISS_NS - CYCLE_NS
        assert timing.writeback_ns == 0

    def test_writeback_accounting(self):
        cache = Cache(CacheConfig(capacity_words=8, ways=2, block_words=4))
        cache.access(CacheCmd.WRITE, encode_address(Area.HEAP, 0))
        cache.access(CacheCmd.READ, encode_address(Area.HEAP, 4))
        cache.access(CacheCmd.READ, encode_address(Area.HEAP, 8))  # evict dirty
        timing = execution_time(10, cache.stats)
        assert timing.writeback_ns == TRANSFER_NS

    def test_time_without_cache(self):
        timing = time_without_cache(100, 20)
        assert timing.compute_ns == 100 * CYCLE_NS
        assert timing.miss_stall_ns == 20 * (MISS_NS - CYCLE_NS)

    def test_no_cache_stats_is_not_tnc(self):
        """``execution_time(n, None)`` is compute-only; the all-miss
        Tnc needs the access count and :func:`time_without_cache`."""
        compute_only = execution_time(100, None)
        assert compute_only.miss_stall_ns == 0
        assert compute_only.writeback_ns == compute_only.through_write_ns == 0
        assert time_without_cache(100, 20).total_ns > compute_only.total_ns


class TestImprovementRatio:
    def test_definition(self):
        # (Tnc/Tc - 1) x 100
        assert improvement_ratio(200, 100) == 100.0
        assert improvement_ratio(100, 100) == 0.0

    def test_zero_denominator(self):
        assert improvement_ratio(100, 0) == 0.0

    def test_perfect_cache_beats_no_cache(self):
        cache = Cache()
        address = encode_address(Area.LOCAL, 0)
        for _ in range(1000):
            cache.access(CacheCmd.READ, address)
        t_c = execution_time(2000, cache.stats).total_ns
        t_nc = time_without_cache(2000, cache.stats.accesses).total_ns
        assert improvement_ratio(t_nc, t_c) > 100.0
