"""The bucketed histogram ``repro.obs.metrics`` used to keep, as a
test-side oracle.

``summarize(samples)`` must equal ``LogBucketHistogram`` fed the same
samples in the same order, key for key and float for float
(``tests/obs/test_metrics.py``).  Importable from ``tests/`` only.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.obs.metrics import SUMMARY_PERCENTILES


class LogBucketHistogram:
    """A bounded histogram over geometric buckets.

    One counter per geometric bucket (growth factor 2**(1/16), so
    quantile answers carry at most ~2.2% relative error), plus exact
    count/sum/min/max.

    Only non-negative values are accepted — every user (latencies,
    staleness ages, dwell times) measures elapsed simulated time.
    """

    __slots__ = ("name", "_buckets", "_zero", "_count", "_sum", "_min",
                 "_max")

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
