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

Each study is also split into its configs and a result built from
their stats, which the evaluation takes from
:func:`repro.eval.runner.cache_stats`.
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


def sweep_configs(capacities=FIGURE1_CAPACITIES,
                  base: CacheConfig | None = None) -> list[CacheConfig]:
    """Vary capacity with other parameters fixed at the PSI values.

    For capacities too small to hold one two-way set of 4-word blocks
    the way count is reduced to keep the geometry legal (the smallest
    point, 8 words, is two 4-word blocks in one set — as in the paper,
    which swept down to 8 words).
    """
    base = base or CacheConfig()
    return [replace(base, capacity_words=capacity,
                    ways=min(base.ways, max(1, capacity // base.block_words)))
            for capacity in capacities]


def sweep_points(steps: int, configs, stats) -> list[SweepPoint]:
    """Figure 1's points from each swept config's replayed stats."""
    return [SweepPoint(config.capacity_words, s.hit_ratio,
                       improvement_from_stats(steps, s))
            for config, s in zip(configs, stats)]


def capacity_sweep(trace, steps: int,
                   capacities=FIGURE1_CAPACITIES,
                   base: CacheConfig | None = None) -> list[SweepPoint]:
    """Figure 1's sweep (:func:`sweep_configs`) over ``trace``, all
    capacities in one :func:`simulate_many` call."""
    configs = sweep_configs(capacities, base)
    return sweep_points(steps, configs, simulate_many(trace, configs))


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


def comparison(pair, steps: int, stats) -> ComparisonResult:
    """A ``(label, config)`` pair's improvements from its replayed stats."""
    (label_a, _), (label_b, _) = pair
    return ComparisonResult(label_a, label_b,
                            *(improvement_from_stats(steps, s) for s in stats))


def associativity_pair(set_capacity_words: int = 4096):
    """Two 4KW sets vs one 4KW set (§4.2: one set was only ~3% lower)."""
    return (("two 4KW sets", CacheConfig(capacity_words=2 * set_capacity_words,
                                         ways=2)),
            ("one 4KW set", CacheConfig(capacity_words=set_capacity_words,
                                        ways=1)))


def write_policy_pair(base: CacheConfig | None = None):
    """Store-in vs store-through (§4.2: store-in ~8% higher)."""
    base = base or CacheConfig()
    return (("store-in", replace(base, policy=WritePolicy.STORE_IN)),
            ("store-through", replace(base, policy=WritePolicy.STORE_THROUGH)))


def compare_associativity(trace, steps: int,
                          set_capacity_words: int = 4096) -> ComparisonResult:
    """:func:`associativity_pair` over ``trace``."""
    pair = associativity_pair(set_capacity_words)
    return comparison(pair, steps, simulate_many(trace, [c for _, c in pair]))


def compare_write_policy(trace, steps: int,
                         base: CacheConfig | None = None) -> ComparisonResult:
    """:func:`write_policy_pair` over ``trace``."""
    pair = write_policy_pair(base)
    return comparison(pair, steps, simulate_many(trace, [c for _, c in pair]))
