"""Metrics registry tests, including parallel-merge == serial equality."""

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
        other = Counter("n")
        other.inc(2)
        c.merge_dict(other.to_dict())
        assert c.value == 7

    def test_gauge_envelope(self):
        g = Gauge("x")
        g.set(5.0)
        g.set(2.0)
        g.set(3.0)
        assert (g.value, g.min, g.max) == (3.0, 2.0, 5.0)

    def test_gauge_merge_sums_and_widens(self):
        a, b = Gauge("x"), Gauge("x")
        a.set(3.0)
        b.set(10.0)
        b.set(7.0)
        a.merge_dict(b.to_dict())
        assert (a.value, a.min, a.max) == (10.0, 3.0, 10.0)

    def test_histogram_buckets_upper_inclusive(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        for value in (5.0, 10.0, 15.0, 20.0, 25.0):
            h.observe(value)
        assert h.buckets == [2, 2, 1]        # <=10, <=20, overflow
        assert h.count == 5
        assert h.mean == pytest.approx(15.0)

    def test_histogram_merge_requires_same_boundaries(self):
        a = Histogram("h", boundaries=(1.0,))
        b = Histogram("h", boundaries=(2.0,))
        with pytest.raises(ValueError):
            a.merge_dict(b.to_dict())


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

    def test_merged_snapshot_percentiles_match_union(self):
        # run_many folds worker snapshots into the parent registry; a
        # percentile of the merged histogram must equal the percentile
        # of one histogram fed every observation directly.
        parts = ([12.0, 55.0, 81.0], [91.0, 97.0, 99.2], [50.0, 85.0])
        workers = []
        for values in parts:
            h = Histogram("h")
            for value in values:
                h.observe(value)
            workers.append(h)

        merged = Histogram("h")
        for worker in workers:
            merged.merge_dict(worker.to_dict())
        direct = Histogram("h")
        for values in parts:
            for value in values:
                direct.observe(value)

        assert merged.to_dict() == direct.to_dict()
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert merged.percentile(q) == pytest.approx(direct.percentile(q))

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

    def test_snapshot_merge_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(97.0)
        snapshot = reg.snapshot()

        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot

        # Merging the snapshot twice doubles every additive quantity.
        rebuilt.merge(snapshot)
        assert rebuilt.value("c") == 6
        assert rebuilt.value("g") == 3.0
        assert rebuilt.get("h").count == 2

    def test_snapshot_is_plain_data(self):
        import json
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(50.0)
        json.dumps(reg.snapshot())       # must not raise


WORKLOADS = ["nreverse", "qsort"]


def _metrics_after(run_fn) -> dict:
    """Global metrics snapshot after running WORKLOADS via ``run_fn``."""
    from repro.eval import runner
    runner.clear_cache()
    runner.set_disk_cache(False)
    obs.reset()
    obs.enable()
    try:
        run_fn()
        return obs.global_metrics().snapshot()
    finally:
        runner.set_disk_cache(True)
        runner.clear_cache()
        obs.reset()


def test_parallel_worker_merge_equals_serial():
    """run_many across processes must aggregate to the serial metrics."""
    from repro.eval import runner

    def serial():
        for name in WORKLOADS:
            runner.run_spec(name, "faithful", record_trace=False)

    def parallel():
        runner.run_many(WORKLOADS, jobs=2, record_trace=False)

    serial_snapshot = _metrics_after(serial)
    parallel_snapshot = _metrics_after(parallel)
    assert serial_snapshot == parallel_snapshot
    assert serial_snapshot["psi.runs"]["value"] == len(WORKLOADS)
    assert serial_snapshot["psi.microsteps"]["value"] > 0


def test_cached_runs_contribute_no_metrics(tmp_path, monkeypatch):
    """A disk-cache hit skips execution, so it adds nothing to metrics."""
    from repro.eval import runner

    monkeypatch.setenv("PSI_CACHE_DIR", str(tmp_path))
    runner.clear_cache()
    runner.set_disk_cache(True)
    obs.reset()
    obs.enable()
    try:
        runner.run_spec("nreverse", "faithful")        # miss: executes, records
        assert obs.global_metrics().value("psi.runs") == 1
        runner.clear_cache()                # drop the in-memory tier only
        run = runner.run_spec("nreverse", "faithful")  # disk hit: no execution
        assert run.observation is None
        assert obs.global_metrics().value("psi.runs") == 1
    finally:
        runner.clear_cache()
        obs.reset()
