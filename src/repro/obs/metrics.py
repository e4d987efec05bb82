"""Metrics registry: counters, gauges and histograms for PSI runs.

Where the tracer (:mod:`repro.obs.trace`) answers "*when* did things
happen inside a run", the metrics registry answers "*how much* of each
thing happened" — in a form that is cheap to record and trivially
picklable.  Each observed run snapshots its own registry into its
:class:`~repro.obs.session.RunObservation`; the evaluation service
keeps a second, server-local one for its wall-clock latencies.

Everything a run records here is deterministic — counts, microsteps,
ratios derived from them — never wall-clock time, so snapshots compare
equal across runs.

Instruments:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-written value plus min/max envelope (``set``);
* :class:`Histogram` — fixed-boundary bucket counts plus sum/count
  (``observe``), the instrument behind "cache hit ratio over time
  windows".

The module-level conventions for what the session records per run are
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value with a min/max envelope."""

    __slots__ = ("name", "value", "min", "max")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def set(self, value: float) -> None:
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "min": self.min, "max": self.max}
        for bound, pick in (("min", min), ("max", max)):
            incoming = data.get(bound)
            if incoming is None:
                continue
            current = getattr(self, bound)
            setattr(self, bound,
                    incoming if current is None else pick(current, incoming))


#: Default histogram boundaries for percentage-valued observations.
PERCENT_BUCKETS = (50.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 100.0)

#: Histogram boundaries for millisecond-valued latency observations
#: (the evaluation service's request service times): log-spaced from
#: sub-millisecond cache hits to the ~30 s a practical-scale workload
#: takes cold, so p50/p99 estimates stay meaningful across four orders
#: of magnitude.
LATENCY_MS_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0, 2000.0, 5000.0, 10000.0, 30000.0)


class Histogram:
    """Fixed-boundary bucket counts (upper-inclusive) plus sum/count.

    ``boundaries`` are the inclusive upper edges of the first
    ``len(boundaries)`` buckets; one overflow bucket catches the rest.
    """

    __slots__ = ("name", "boundaries", "buckets", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, boundaries=PERCENT_BUCKETS):
        self.name = name
        self.boundaries = tuple(boundaries)
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.buckets = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left finds the first boundary >= value: upper-inclusive
        # buckets, with index len(boundaries) as the overflow bucket.
        self.buckets[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Estimated value at/below which ``q``% of observations fall.

        Bucket-based (Prometheus-style): linear interpolation inside
        the containing bucket, with the first bucket's lower edge
        clamped to 0 for positive scales (or to the bucket's own upper
        edge when that is negative), and the overflow bucket reported
        as the largest boundary — the estimator cannot see past it.
        Returns ``None`` on an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return None
        target = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if cumulative + n >= target:
                if i >= len(self.boundaries):      # overflow bucket
                    return (float(self.boundaries[-1])
                            if self.boundaries else self.mean)
                upper = float(self.boundaries[i])
                lower = (float(self.boundaries[i - 1]) if i
                         else min(0.0, upper))
                fraction = max(target - cumulative, 0.0) / n
                return lower + (upper - lower) * fraction
            cumulative += n
        # q == 0 with all mass above the first occupied bucket's start.
        return (float(self.boundaries[-1])
                if self.boundaries else self.mean)

    def quantiles(self, qs=(50.0, 90.0, 99.0)) -> dict:
        """The live-snapshot view an endpoint serves: count, mean, and
        a ``p50``-style estimate per requested quantile (``None``s when
        the histogram is empty)."""
        summary = {"count": self.count, "mean": self.mean}
        for q in qs:
            summary[f"p{q:g}"] = self.percentile(q)
        return summary

    def to_dict(self) -> dict:
        return {"kind": self.kind, "boundaries": list(self.boundaries),
                "buckets": list(self.buckets),
                "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """A named collection of instruments with plain-data snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    # -- instrument accessors (create on first use) --------------------------

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered "
                            f"as {type(metric).kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, boundaries=PERCENT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, boundaries=boundaries)

    # -- introspection --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def value(self, name: str):
        """Shortcut: the scalar value of a counter/gauge."""
        return self._metrics[name].value

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data (picklable, JSON-able) copy of every metric."""
        return {name: metric.to_dict()
                for name, metric in sorted(self._metrics.items())}
