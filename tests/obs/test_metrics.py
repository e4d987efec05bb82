"""Metrics registry tests, and which runs carry run metrics."""

import pytest

from repro import obs
from repro.obs.metrics import (
    LATENCY_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestInstruments:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_envelope(self):
        g = Gauge("x")
        g.set(5.0)
        g.set(2.0)
        g.set(3.0)
        assert (g.value, g.min, g.max) == (3.0, 2.0, 5.0)

    def test_histogram_buckets_upper_inclusive(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        for value in (5.0, 10.0, 15.0, 20.0, 25.0):
            h.observe(value)
        assert h.buckets == [2, 2, 1]        # <=10, <=20, overflow
        assert h.count == 5
        assert h.mean == pytest.approx(15.0)


class TestHistogramPercentile:
    def test_empty_histogram_returns_none(self):
        h = Histogram("h")
        assert h.percentile(50) is None
        assert h.percentile(0) is None

    def test_out_of_range_quantile_raises(self):
        h = Histogram("h")
        h.observe(50.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(100.5)

    def test_single_sample_stays_inside_its_bucket(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        h.observe(15.0)                     # lands in (10, 20]
        for q in (0, 50, 100):
            p = h.percentile(q)
            assert 10.0 <= p <= 20.0

    def test_single_sample_in_first_bucket_clamps_at_zero(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        h.observe(5.0)
        assert 0.0 <= h.percentile(50) <= 10.0

    def test_overflow_bucket_reports_largest_boundary(self):
        # The estimator cannot see past the last boundary.
        h = Histogram("h", boundaries=(10.0,))
        h.observe(1000.0)
        assert h.percentile(99) == 10.0

    def test_boundaryless_histogram_falls_back_to_mean(self):
        h = Histogram("h", boundaries=())
        h.observe(3.0)
        h.observe(5.0)
        assert h.percentile(50) == pytest.approx(4.0)

    def test_interpolation_is_monotonic(self):
        h = Histogram("h", boundaries=(10.0, 20.0, 30.0))
        for value in (5.0, 12.0, 15.0, 22.0, 28.0, 29.0):
            h.observe(value)
        quantiles = [h.percentile(q) for q in (10, 25, 50, 75, 90, 100)]
        assert quantiles == sorted(quantiles)
        assert quantiles[-1] <= 30.0

    def test_quantiles_summary_shape(self):
        # The dict the serve 'metrics' endpoint returns for latencies.
        h = Histogram("h", boundaries=LATENCY_MS_BUCKETS)
        assert h.quantiles() == {"count": 0, "mean": 0.0, "p50": None,
                                 "p90": None, "p99": None}
        for value in (0.4, 3.0, 8.0, 40.0, 900.0):
            h.observe(value)
        summary = h.quantiles(qs=(50.0, 99.0))
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(sum((0.4, 3.0, 8.0, 40.0,
                                                     900.0)) / 5)
        assert 2.0 <= summary["p50"] <= 10.0
        assert 500.0 <= summary["p99"] <= 1000.0
        assert "p90" not in summary

    def test_latency_buckets_are_valid_boundaries(self):
        # Sorted (the Histogram constructor enforces it) and spanning
        # sub-ms cache hits through ~30 s cold practical-scale runs.
        h = Histogram("h", boundaries=LATENCY_MS_BUCKETS)
        assert h.boundaries[0] <= 1.0
        assert h.boundaries[-1] >= 30000.0
        h.observe(0.01)
        h.observe(60000.0)                  # overflow bucket
        assert h.count == 2


class TestRegistry:
    def test_create_on_first_use_and_kind_clash(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        assert reg.counter("a").value == 1
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_is_plain_data(self):
        import json
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(50.0)
        json.dumps(reg.snapshot())       # must not raise


def test_cached_runs_contribute_no_metrics(tmp_path, monkeypatch):
    """A disk-cache hit skips execution, so it carries no observation
    (and hence no run metrics), even inside ``observed()``."""
    from repro.eval import runner

    monkeypatch.setenv("PSI_CACHE_DIR", str(tmp_path))
    runner.clear_cache()
    runner.set_disk_cache(True)
    try:
        with obs.observed():
            fresh = runner.run_spec("nreverse", "faithful")   # executes
            assert fresh.observation.metrics_snapshot["psi.runs"] == {
                "kind": "counter", "value": 1}
            runner.clear_cache()        # drop the in-memory tier only
            run = runner.run_spec("nreverse", "faithful")     # disk hit
        assert runner.CACHE_EVENTS["disk_hit"] == 1
        assert run.observation is None
    finally:
        runner.clear_cache()
