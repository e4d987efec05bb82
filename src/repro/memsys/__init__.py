"""Memory-system simulation: the PMMS cache simulator and timing model."""

from repro.memsys.cache import (AreaCounts, Cache, CacheConfig, CacheResult,
                                CacheStats, WritePolicy, count_entries_packed)
from repro.memsys.timing import (
    CYCLE_NS,
    MISS_NS,
    TRANSFER_NS,
    TimingBreakdown,
    execution_time,
    improvement_ratio,
    time_without_cache,
)

#: The production PSI cache configuration (§2.2 of the paper).
PSI_CACHE = CacheConfig()

__all__ = [
    "Cache", "CacheConfig", "CacheResult", "CacheStats", "AreaCounts",
    "WritePolicy", "count_entries_packed",
    "PSI_CACHE",
    "TimingBreakdown", "execution_time", "time_without_cache",
    "improvement_ratio", "CYCLE_NS", "MISS_NS", "TRANSFER_NS",
]
