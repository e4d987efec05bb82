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
  histograms, snapshotted into each run's observation;
* :mod:`repro.obs.profile` — microstep attribution to
  ``(workload predicate × interpreter module)`` pairs, rendered as
  collapsed-stack flamegraph input and text top-N reports.

Everything is **off by default and zero-cost when disabled**: the
module-level :func:`enabled` flag is consulted once per collected run
(in :func:`repro.tools.collect.collect`), never per microstep.  When
disabled, the machine uses the plain
:class:`~repro.core.stats.StatsCollector` and no obs object exists.
The one switch is the :func:`observed` context manager: every run
collected inside it carries a
:class:`~repro.obs.session.RunObservation`.  The ``psi-eval profile``
subcommand does it for you.

Observability output is *derived* from execution and deterministic
(identical runs produce identical traces, profiles and metrics); it is
never stored in the persistent run cache, so a run served from a cache
tier carries no observation.  See
``docs/OBSERVABILITY.md`` for the user guide and schemas.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

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
    "enabled", "observed", "begin_run",
]

_enabled = False
_config = ObsConfig()


def enabled() -> bool:
    """Is observability on for this process?"""
    return _enabled


def reset() -> None:
    """Turn observability off and restore the default config (test
    isolation)."""
    global _enabled, _config
    _enabled = False
    _config = ObsConfig()


@contextmanager
def observed(config: ObsConfig | None = None, **overrides):
    """Context manager: observability on inside, previous state after.

    ``overrides`` are :class:`ObsConfig` fields, e.g.
    ``observed(trace_capacity=1 << 20, cache_window=4096)``, applied to
    ``config`` or else to the current config.
    """
    global _enabled, _config
    if config is not None and overrides:
        raise ValueError("pass either a config or field overrides, not both")
    previous = _enabled, _config
    if config is None:
        config = replace(_config, **overrides) if overrides else _config
    _enabled, _config = True, config
    try:
        yield
    finally:
        _enabled, _config = previous


def begin_run(goal: str) -> ObsSession:
    """Create the instrumentation session for one run (enabled mode)."""
    return ObsSession(goal, _config)
