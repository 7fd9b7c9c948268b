"""Unit tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LogBucketHistogram,
    MetricsRegistry,
)


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    counter = Counter("c")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_sets():
    gauge = Gauge("g")
    gauge.set(3.5)
    assert gauge.value == 3.5
    gauge.set(-1.0)
    assert gauge.value == -1.0


def test_histogram_summary():
    hist = Histogram("h")
    for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == 5
    assert summary["min"] == 1.0
    assert summary["max"] == 5.0
    assert summary["mean"] == 3.0
    assert summary["p50"] == 3.0


def test_histogram_percentile_nearest_rank():
    hist = Histogram("h")
    for value in range(1, 101):
        hist.observe(float(value))
    assert hist.percentile(50) == 50.0
    assert hist.percentile(90) == 90.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0


def test_histogram_empty_summary():
    assert Histogram("h").summary() == {"count": 0}


def test_log_histogram_bucket_boundaries():
    # an exact power of the growth factor lands on its own bucket's
    # floor, not the one below, despite float log rounding
    g = LogBucketHistogram.GROWTH
    for index in (-40, -1, 0, 1, 17, 160):
        assert LogBucketHistogram.bucket_index(g ** index) == index
        # just below the boundary falls in the previous bucket
        assert LogBucketHistogram.bucket_index(g ** index * 0.999) == index - 1
    assert LogBucketHistogram.bucket_index(1.0) == 0


def test_log_histogram_percentile_accuracy():
    hist = LogBucketHistogram("h")
    for value in range(1, 1001):
        hist.observe(float(value))
    # representatives stay within one bucket width of the exact answer
    for q, exact in [(50, 500.0), (90, 900.0), (99, 990.0)]:
        assert abs(hist.percentile(q) - exact) / exact < 0.05
    assert hist.percentile(100) == 1000.0  # max is exact
    assert hist.count == 1000
    assert hist.mean == pytest.approx(500.5)


def test_log_histogram_empty_and_one_sample():
    hist = LogBucketHistogram("h")
    assert hist.summary() == {"count": 0}
    assert hist.percentile(50) == 0.0
    hist.observe(7.25)
    summary = hist.summary()
    assert summary["count"] == 1
    assert summary["min"] == 7.25
    assert summary["max"] == 7.25
    # a single sample is every percentile, exactly
    assert summary["p50"] == 7.25
    assert summary["p99"] == 7.25


def test_log_histogram_zero_and_negative():
    hist = LogBucketHistogram("h")
    hist.observe(0.0)
    hist.observe(0.0)
    hist.observe(4.0)
    assert hist.percentile(50) == 0.0
    assert hist.summary()["min"] == 0.0
    with pytest.raises(ValueError):
        hist.observe(-1.0)


def test_log_histogram_merge():
    left = LogBucketHistogram("h")
    right = LogBucketHistogram("h")
    combined = LogBucketHistogram("h")
    for value in [1.0, 8.0, 64.0]:
        left.observe(value)
        combined.observe(value)
    for value in [0.0, 2.0, 512.0]:
        right.observe(value)
        combined.observe(value)
    left.merge(right)
    assert left.count == combined.count
    assert left.summary() == combined.summary()
    with pytest.raises(TypeError):
        left.merge(Histogram("h"))  # type: ignore[arg-type]


def test_log_histogram_merge_empty():
    left = LogBucketHistogram("h")
    left.observe(3.0)
    left.merge(LogBucketHistogram("h"))
    assert left.summary()["count"] == 1
    empty = LogBucketHistogram("h")
    empty.merge(left)
    assert empty.summary()["max"] == 3.0


def test_registry_log_histogram_interned_and_kind_checked():
    registry = MetricsRegistry()
    hist = registry.log_histogram("lat")
    assert registry.log_histogram("lat") is hist
    assert isinstance(hist, LogBucketHistogram)
    registry.histogram("exact")
    with pytest.raises(ValueError):
        registry.log_histogram("exact")
    hist.observe(2.0)
    assert registry.snapshot()["histograms"]["lat"]["count"] == 1


def test_registry_interns_instruments():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")


def test_registry_rejects_kind_conflict():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_registry_snapshot_sorted_and_json_ready():
    import json

    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    registry.gauge("g").set(7)
    registry.histogram("h").observe(1.0)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "b"]
    assert snapshot["gauges"] == {"g": 7}
    assert snapshot["histograms"]["h"]["count"] == 1
    json.dumps(snapshot)  # must be serializable as-is
