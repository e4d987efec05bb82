"""``repro.obs`` — the observability layer of the reproduction.

The paper's contribution is *measurement*: Tables 2–7 and Figure 1 are
dynamic frequencies sampled from the PSI's console tools.  This
package is the reproduction's own console: it makes the inside of a
run observable — where microsteps, cache misses and modelled time go —
through three cooperating instruments:

* :mod:`repro.obs.trace` — a structured event tracer (ring-buffered
  spans/instants/counters on the deterministic microstep clock),
  exportable as JSONL and Chrome ``trace_event`` JSON for Perfetto;
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms snapshotted per run and merged across ``run_many``
  workers;
* :mod:`repro.obs.profile` — microstep attribution to
  ``(workload predicate × interpreter module)`` pairs, rendered as
  collapsed-stack flamegraph input and text top-N reports.

Everything is **off by default and zero-cost when disabled**: the
module-level :func:`enabled` flag is consulted once per collected run
(in :func:`repro.tools.collect.collect`), never per microstep.  When
disabled, the machine uses the plain
:class:`~repro.core.stats.StatsCollector` and no obs object exists.
Enable per process with :func:`enable` / the ``PSI_OBS=1`` environment
variable, or scoped with the :func:`observed` context manager; the
``psi-eval profile`` subcommand does it for you.

Observability output is *derived* from execution and deterministic
(identical runs produce identical traces, profiles and metrics); it is
never stored in the PR-1 persistent run cache.  See
``docs/OBSERVABILITY.md`` for the user guide and schemas.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import MicroProfile
from repro.obs.session import ObsConfig, ObsSession, RunObservation
from repro.obs.timetravel import (Divergence, ReplayState, TraceExplorer,
                                  first_divergence)
from repro.obs.trace import RingBuffer, TraceEvent, Tracer, read_jsonl

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MicroProfile", "ObsConfig", "ObsSession", "RunObservation",
    "RingBuffer", "TraceEvent", "Tracer", "read_jsonl",
    "Divergence", "ReplayState", "TraceExplorer", "first_divergence",
    "enabled", "enable", "disable", "observed",
    "begin_run", "record_run", "merge_snapshot", "global_metrics",
]

_enabled = False
_config = ObsConfig()

#: Process-global metrics registry: every observed run's snapshot is
#: merged here (locally collected runs in :func:`record_run`, worker
#: snapshots in :func:`repro.eval.runner.run_many`).
_GLOBAL_METRICS = MetricsRegistry()


def enabled() -> bool:
    """Is observability on for this process?"""
    return _enabled


def enable(config: ObsConfig | None = None, **overrides) -> None:
    """Turn observability on (optionally with config overrides).

    ``overrides`` are :class:`ObsConfig` fields, e.g.
    ``enable(trace_capacity=1 << 20, cache_window=4096)``.
    """
    global _enabled, _config
    if config is not None and overrides:
        raise ValueError("pass either a config or field overrides, not both")
    if config is None:
        from dataclasses import replace
        config = replace(_config, **overrides) if overrides else _config
    _config = config
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Disable and drop all accumulated global metrics (test isolation)."""
    global _config
    disable()
    _config = ObsConfig()
    _GLOBAL_METRICS.clear()


@contextmanager
def observed(config: ObsConfig | None = None, **overrides):
    """Context manager: observability on inside, previous state after."""
    global _config
    was_enabled, previous_config = _enabled, _config
    enable(config, **overrides)
    try:
        yield
    finally:
        _config = previous_config
        if not was_enabled:
            disable()


def config() -> ObsConfig:
    return _config


def begin_run(goal: str) -> ObsSession:
    """Create the instrumentation session for one run (enabled mode)."""
    return ObsSession(goal, _config)


def record_run(observation: RunObservation) -> None:
    """Merge a finished run's metrics into the process-global registry."""
    _GLOBAL_METRICS.merge(observation.metrics_snapshot)


def merge_snapshot(snapshot: dict) -> None:
    """Merge a metrics snapshot (e.g. from a ``run_many`` worker)."""
    _GLOBAL_METRICS.merge(snapshot)


def global_metrics() -> MetricsRegistry:
    return _GLOBAL_METRICS


if os.environ.get("PSI_OBS", "").strip() not in ("", "0"):
    enable()
