"""PMMS: the cache memory simulator driver.

The original PMMS replayed cache-command/address traces collected by
COLLECT against various cache specifications to produce hit ratios and
the capacity/organisation studies of §4.2.  This module does exactly
that over a :class:`~repro.core.memory.TraceRecorder`:

* :func:`simulate` — one configuration over one trace, one
  :meth:`~repro.memsys.Cache.access` per entry (the reference),
* :func:`simulate_many` — many configurations over one trace, each one
  pass of the packed kernel :meth:`~repro.memsys.Cache.access_many_packed`
  (the path every study uses),
* :func:`capacity_sweep` — Figure 1's 8-word → 8K-word sweep,
* :func:`compare_associativity` — the 1-set vs 2-set 4KW study,
* :func:`compare_write_policy` — the store-in vs store-through study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.memory import TraceRecorder
from repro.memsys import (
    Cache,
    CacheConfig,
    CacheStats,
    WritePolicy,
    count_entries_packed,
    execution_time,
    improvement_ratio,
    time_without_cache,
)

#: Figure 1's x axis: cache capacity from 8 words to 8K words.
FIGURE1_CAPACITIES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def simulate(trace: TraceRecorder, config: CacheConfig | None = None) -> CacheStats:
    """Replay ``trace`` through a fresh cache with ``config``.

    This is the reference implementation: one :meth:`Cache.access` call
    per trace entry.  The batched path (:func:`simulate_many`) is tested
    bit-identical against it.
    """
    cache = Cache(config or CacheConfig())
    access = cache.access
    for cmd, address in trace.entries():
        access(cmd, address)
    return cache.stats


def simulate_many(trace: TraceRecorder, configs,
                  totals=None) -> list[CacheStats]:
    """Replay one trace through many configurations.

    Each configuration's cache takes one pass of the packed kernel
    (:meth:`~repro.memsys.Cache.access_many_packed`) over the raw
    trace, which is never decoded.  ``totals`` are the trace's
    per-area / per-command access totals; a caller holding the run's
    collector passes its own (:func:`repro.tools.collect._totals_from_stats`)
    and the counting pass is skipped, otherwise it runs once for all
    configurations.  Statistics are bit-identical to running
    :func:`simulate` once per configuration.

    In the evaluation pipeline the trace usually arrives from the
    persistent run cache (``RunSummary.trace_bytes`` rebuilt by
    :func:`repro.eval.runner.run_spec`); replay is pure — deterministic
    in (trace, config) and independent of how the trace was obtained —
    which is what makes caching the trace instead of the replay results
    safe.
    """
    data = trace.data
    if totals is None:
        totals = count_entries_packed(data)
    stats = []
    for config in configs:
        cache = Cache(config)
        cache.access_many_packed(data, totals)
        stats.append(cache.stats)
    return stats


@dataclass(frozen=True)
class SweepPoint:
    """One Figure-1 data point."""

    capacity_words: int
    hit_ratio: float
    improvement_percent: float


def improvement_from_stats(steps: int, stats: CacheStats) -> float:
    """The paper's metric ((Tnc/Tc) - 1) x 100 from replayed stats."""
    t_c = execution_time(steps, stats).total_ns
    t_nc = time_without_cache(steps, stats.accesses).total_ns
    return improvement_ratio(t_nc, t_c)


def performance_improvement(trace, steps: int,
                            config: CacheConfig) -> tuple[float, CacheStats]:
    """The paper's metric: ((Tnc/Tc) - 1) x 100 for one configuration."""
    (stats,) = simulate_many(trace, [config])
    return improvement_from_stats(steps, stats), stats


def capacity_sweep(trace, steps: int,
                   capacities=FIGURE1_CAPACITIES,
                   base: CacheConfig | None = None) -> list[SweepPoint]:
    """Vary capacity with other parameters fixed at the PSI values.

    For capacities too small to hold one two-way set of 4-word blocks
    the way count is reduced to keep the geometry legal (the smallest
    point, 8 words, is two 4-word blocks in one set — as in the paper,
    which swept down to 8 words).

    All capacities replay through one :func:`simulate_many` call.
    """
    base = base or CacheConfig()
    configs = []
    for capacity in capacities:
        ways = min(base.ways, max(1, capacity // base.block_words))
        configs.append(replace(base, capacity_words=capacity, ways=ways))
    return [SweepPoint(capacity, stats.hit_ratio,
                       improvement_from_stats(steps, stats))
            for capacity, stats in zip(capacities, simulate_many(trace, configs))]


@dataclass(frozen=True)
class ComparisonResult:
    label_a: str
    label_b: str
    improvement_a: float
    improvement_b: float

    @property
    def difference(self) -> float:
        return self.improvement_a - self.improvement_b

    @property
    def relative_loss_percent(self) -> float:
        """How much lower b's improvement is, relative to a's."""
        if self.improvement_a == 0:
            return 0.0
        return 100.0 * (self.improvement_a - self.improvement_b) / self.improvement_a


def _compare(trace, steps: int, label_a: str, config_a: CacheConfig,
             label_b: str, config_b: CacheConfig) -> ComparisonResult:
    stats_a, stats_b = simulate_many(trace, [config_a, config_b])
    return ComparisonResult(label_a, label_b,
                            improvement_from_stats(steps, stats_a),
                            improvement_from_stats(steps, stats_b))


def compare_associativity(trace, steps: int,
                          set_capacity_words: int = 4096) -> ComparisonResult:
    """Two 4KW sets vs one 4KW set (§4.2: one set was only ~3% lower)."""
    two_set = CacheConfig(capacity_words=2 * set_capacity_words, ways=2)
    one_set = CacheConfig(capacity_words=set_capacity_words, ways=1)
    return _compare(trace, steps, "two 4KW sets", two_set,
                    "one 4KW set", one_set)


def compare_write_policy(trace, steps: int,
                         base: CacheConfig | None = None) -> ComparisonResult:
    """Store-in vs store-through (§4.2: store-in ~8% higher)."""
    base = base or CacheConfig()
    store_in = replace(base, policy=WritePolicy.STORE_IN)
    store_through = replace(base, policy=WritePolicy.STORE_THROUGH)
    return _compare(trace, steps, "store-in", store_in,
                    "store-through", store_through)
