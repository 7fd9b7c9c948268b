"""A metrics registry: counters, gauges, and histograms.

The registry is the structured companion to the benchmark tables —
every ``bench_*`` run and every :func:`~repro.workload.runner.
run_experiment` call loads its results into one so the numbers exist
in machine-readable form, giving future performance PRs a stable
baseline to diff against.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Optional

#: percentiles reported in every histogram summary
SUMMARY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time measurement; set to whatever was last observed."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A distribution with exact percentile summaries.

    Values are kept sorted (insertion via ``bisect``), so percentile
    queries are O(1) and summaries are cheap; simulation runs observe
    thousands of samples, not millions, so exactness beats bucketing.
    """

    __slots__ = ("name", "_sorted", "_sum")

    def __init__(self, name: str):
        self.name = name
        self._sorted: List[float] = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        insort(self._sorted, value)
        self._sum += value

    def observe_many(self, values) -> None:
        """Bulk observe: one sort instead of n insertions.

        Used when a finished run loads accumulated samples (e.g. the
        transport's fan-out latencies) into a registry at once.
        """
        batch = list(values)
        if not batch:
            return
        self._sorted = sorted(self._sorted + batch)
        self._sum += sum(batch)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._sorted) if self._sorted else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; 0 with no samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self._sorted:
            return 0.0
        rank = max(1, -(-len(self._sorted) * p // 100))  # ceil, rank >= 1
        return self._sorted[int(rank) - 1]

    def summary(self) -> dict:
        """Count, sum, mean, min/max, and the standard percentiles."""
        if not self._sorted:
            return {"count": 0}
        result = {
            "count": len(self._sorted),
            "sum": self._sum,
            "mean": self.mean,
            "min": self._sorted[0],
            "max": self._sorted[-1],
        }
        for p in SUMMARY_PERCENTILES:
            result[f"p{p:g}"] = self.percentile(p)
        return result

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={len(self._sorted)})"


class LogBucketHistogram(Histogram):
    """A bounded histogram over geometric buckets.

    The exact :class:`Histogram` keeps every sample, which is right for
    a few thousand fan-out latencies but wrong for open-loop latency
    recording, where a load driver can observe one sample per simulated
    transaction for millions of transactions.  This variant keeps one
    counter per geometric bucket (growth factor 2**(1/16), so quantile
    answers carry at most ~2.2% relative error), giving O(log range)
    memory no matter how many samples land, plus exact count/sum/min/
    max.  Buckets merge counter-wise, so per-run histograms aggregate
    across sweep cells and worker processes without resorting.

    Only non-negative values are accepted — every user (latencies,
    staleness ages, dwell times) measures elapsed simulated time.
    """

    __slots__ = ("_buckets", "_zero", "_count", "_min", "_max")

    #: per-decade resolution: bucket i spans [GROWTH**i, GROWTH**(i+1))
    GROWTH = 2.0 ** (1.0 / 16.0)
    _LOG_GROWTH = math.log(2.0) / 16.0
    #: nudge keeps exact powers of GROWTH on their own bucket's floor
    #: despite float log rounding (pinned by the boundary unit test)
    _EDGE_EPS = 1e-9

    def __init__(self, name: str):
        self.name = name
        self._buckets: Dict[int, int] = {}
        self._zero = 0          # zero is its own bucket (log undefined)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @classmethod
    def bucket_index(cls, value: float) -> int:
        """The geometric bucket a positive value falls into."""
        return math.floor(math.log(value) / cls._LOG_GROWTH + cls._EDGE_EPS)

    @classmethod
    def bucket_value(cls, index: int) -> float:
        """A bucket's representative: the geometric middle of its span."""
        return cls.GROWTH ** (index + 0.5)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(
                f"histogram {self.name} records elapsed time; "
                f"got negative value {value}"
            )
        if value == 0:
            self._zero += 1
        else:
            index = self.bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "LogBucketHistogram") -> None:
        """Fold another log-bucket histogram's counts into this one."""
        if not isinstance(other, LogBucketHistogram):
            raise TypeError(
                f"cannot merge {type(other).__name__} into log-bucket "
                f"histogram {self.name}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        for bound in (other._min, other._max):
            if bound is None:
                continue
            self._min = bound if self._min is None else min(self._min, bound)
            self._max = bound if self._max is None else max(self._max, bound)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over buckets; 0 with no samples.

        Answers are bucket representatives, so they sit within one half
        bucket width (~2.2% relative) of the exact answer — except the
        extremes: rank 1 with a recorded min and the top rank clamp to
        the exact min/max.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self._count:
            return 0.0
        rank = max(1, -(-self._count * p // 100))  # ceil, rank >= 1
        if rank >= self._count:
            return float(self._max)  # type: ignore[arg-type]
        seen = self._zero
        if rank <= seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                value = self.bucket_value(index)
                # clamp representatives into the observed range
                return min(max(value, self._min),  # type: ignore[arg-type]
                           self._max)              # type: ignore[arg-type]
        return float(self._max)  # type: ignore[arg-type]

    def summary(self) -> dict:
        if not self._count:
            return {"count": 0}
        result = {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
        }
        for p in SUMMARY_PERCENTILES:
            result[f"p{p:g}"] = self.percentile(p)
        return result

    def __repr__(self) -> str:
        return (f"LogBucketHistogram({self.name}, n={self._count}, "
                f"buckets={len(self._buckets)})")


class MetricsRegistry:
    """Interned instruments, keyed by name."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unclaimed(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unclaimed(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unclaimed(name, self._histograms)
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def log_histogram(self, name: str) -> LogBucketHistogram:
        """A bounded log-bucketed histogram (see LogBucketHistogram)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unclaimed(name, self._histograms)
            instrument = self._histograms[name] = LogBucketHistogram(name)
        elif not isinstance(instrument, LogBucketHistogram):
            raise ValueError(
                f"metric {name!r} already registered as an exact histogram"
            )
        return instrument

    def _check_unclaimed(self, name: str, claiming: dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not claiming and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as another kind"
                )

    def snapshot(self) -> dict:
        """Everything recorded, as a sorted, JSON-ready dict."""
        return {
            "counters": {name: c.value for name, c
                         in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g
                       in sorted(self._gauges.items())},
            "histograms": {name: h.summary() for name, h
                           in sorted(self._histograms.items())},
        }

    def __repr__(self) -> str:
        return (f"MetricsRegistry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms)")
