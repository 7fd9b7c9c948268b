"""Unit tests for the metrics registry and ``summarize``."""

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    GROWTH,
    MetricsRegistry,
    bucket_index,
    summarize,
)
from tests.obs.reference_histogram import LogBucketHistogram


@dataclass
class ToyStats:
    hits: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    waits: List[float] = field(default_factory=list)


def test_counter_increments():
    # the registry reads the live object: counts made after it was
    # registered show up, nothing is copied at registration
    registry = MetricsRegistry()
    stats = registry.share("toy", ToyStats())
    stats.hits += 1
    stats.hits += 4
    stats.by_kind["read"] = 2
    counters = registry.snapshot()["counters"]
    assert counters == {"toy.hits": 5, "toy.by_kind.read": 2}


def test_gauge_sets():
    # ProtocolMetrics' prefix is published as gauges
    registry = MetricsRegistry()
    registry.share("protocol", ToyStats(hits=3))
    snapshot = registry.snapshot()
    assert snapshot["gauges"] == {"protocol.hits": 3}
    assert snapshot["counters"] == {}


def test_histogram_summary():
    summary = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary["count"] == 5
    assert summary["min"] == 1.0
    assert summary["max"] == 5.0
    assert summary["mean"] == 3.0
    # the third-ranked sample's bucket, within half a bucket of 3.0
    assert abs(summary["p50"] - 3.0) / 3.0 < 0.025


def test_histogram_percentile_nearest_rank():
    summary = summarize([float(value) for value in range(1, 101)])
    for key, exact in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
        assert abs(summary[key] - exact) / exact < 0.025
        assert bucket_index(summary[key]) == bucket_index(exact)
    assert summary["max"] == 100.0


def test_histogram_empty_summary():
    assert summarize([]) == {"count": 0}


def test_log_histogram_bucket_boundaries():
    # an exact power of the growth factor lands on its own bucket's
    # floor, not the one below, despite float log rounding
    for index in (-40, -1, 0, 1, 17, 160):
        assert bucket_index(GROWTH ** index) == index
        # just below the boundary falls in the previous bucket
        assert bucket_index(GROWTH ** index * 0.999) == index - 1
    assert bucket_index(1.0) == 0


def test_log_histogram_percentile_accuracy():
    summary = summarize([float(value) for value in range(1, 1001)])
    # representatives stay within one bucket width of the exact answer
    for key, exact in [("p50", 500.0), ("p90", 900.0), ("p99", 990.0)]:
        assert abs(summary[key] - exact) / exact < 0.05
    assert summary["max"] == 1000.0  # max is exact
    assert summary["count"] == 1000
    assert summary["mean"] == pytest.approx(500.5)


def test_log_histogram_empty_and_one_sample():
    summary = summarize([7.25])
    assert summary["count"] == 1
    assert summary["min"] == 7.25
    assert summary["max"] == 7.25
    # a single sample is every percentile, exactly
    assert summary["p50"] == 7.25
    assert summary["p99"] == 7.25


def test_log_histogram_zero_and_negative():
    summary = summarize([0.0, 0.0, 4.0])
    assert summary["p50"] == 0.0
    assert summary["min"] == 0.0
    with pytest.raises(ValueError):
        summarize([1.0, -1.0])


def test_log_histogram_merge():
    # a cluster's processors append into one list, in observation
    # order: every key but the float sum (and the mean) is order-free
    left, right = [1.0, 8.0, 64.0, 0.0], [0.0, 2.0, 512.0, 3.5]
    one = summarize(left + right)
    other = summarize(right + left)
    assert {k: v for k, v in one.items() if k not in ("sum", "mean")} == \
        {k: v for k, v in other.items() if k not in ("sum", "mean")}
    assert one["count"] == 8 and one["max"] == 512.0


def test_registry_interns_instruments():
    # one stats object per prefix: the first one offered is kept
    registry = MetricsRegistry()
    first, second = ToyStats(), ToyStats()
    assert registry.share("toy", first) is first
    assert registry.share("toy", second) is first
    assert registry.sources == {"toy": first}


def test_registry_snapshot_sorted_and_json_ready():
    registry = MetricsRegistry()
    registry.share("b", ToyStats(hits=2))
    registry.share("a", ToyStats(hits=1, waits=[1.0]))
    registry.samples["c.latency"] = [2.0]
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a.hits", "b.hits"]
    assert list(snapshot["histograms"]) == ["a.waits", "b.waits",
                                            "c.latency"]
    assert snapshot["histograms"]["a.waits"]["count"] == 1
    assert snapshot["histograms"]["b.waits"] == {"count": 0}
    json.dumps(snapshot)  # must be serializable as-is


#: bucket floors and the float just below each
_EDGES = [GROWTH ** index for index in (-40, -1, 0, 1, 17, 160)]
_SAMPLE = st.one_of(
    st.just(0.0),
    st.sampled_from(_EDGES),
    st.sampled_from([math.nextafter(edge, 0.0) for edge in _EDGES]),
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=0.0, max_value=1e17, allow_nan=False),
)


def _run_sized(seed: int) -> List[float]:
    """10 000 latency-like samples, about a run's worth."""
    rng = random.Random(seed)
    return [rng.expovariate(0.3) for _ in range(10_000)]


_SAMPLES = st.one_of(
    st.lists(_SAMPLE, min_size=1, max_size=1),
    st.lists(_SAMPLE, min_size=1, max_size=60),
    st.lists(_SAMPLE, min_size=1, max_size=20).map(lambda xs: xs * 3),
    st.integers(min_value=0).map(_run_sized),
)


@given(_SAMPLES)
@settings(max_examples=300, deadline=None)
def test_summarize_equals_the_reference_histogram(samples):
    reference = LogBucketHistogram("reference")
    reference.observe_many(samples)
    expected = reference.summary()
    got = summarize(samples)
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key] == value, key
