"""The metrics registry: one surface over a cluster's live stats.

Every component counts into a plain ``*Stats`` dataclass (``stats.x +=
1``, ``stats.samples.append(t)``).  Inside a cluster each subsystem has
exactly one such object, shared by all of its components; the
:class:`MetricsRegistry` holds a reference to it under a metric prefix
and :meth:`~MetricsRegistry.snapshot` reads it when called.  Nothing is
copied during or after a run.

The naming rule lives here and only here.  For the object registered as
``prefix``:

* an int field ``f`` is the counter ``prefix.f`` (a gauge for the
  prefixes in :data:`GAUGE_PREFIXES`);
* a dict of counts is one such value per key, ``prefix.f.key``;
* a list of elapsed-time samples is the histogram ``prefix.f``,
  summarised by :func:`summarize`;

and :data:`RENAMED` maps the few whose published name differs.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Dict, List, TypeVar

#: percentiles reported in every histogram summary
SUMMARY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)

#: bucket i spans [GROWTH**i, GROWTH**(i+1)): a percentile is within
#: ~2.2 % of the exact answer
GROWTH = 2.0 ** (1.0 / 16.0)
_LOG_GROWTH = math.log(2.0) / 16.0
#: nudge keeps exact powers of GROWTH on their own bucket's floor
#: despite float log rounding (pinned by the boundary unit test)
_EDGE_EPS = 1e-9

#: prefixes whose int fields are published as gauges, not counters
#: (``ledger/metrics.py`` reads ``gauges["protocol.*"]``)
GAUGE_PREFIXES = frozenset({"protocol"})

#: ``prefix.field`` -> the name it is published under
RENAMED = {
    "msg.by_kind": "msg.kind",
    "transport.fanout_latencies": "transport.fanout_latency",
    "protocol.in_doubt_dwell": "txn.in_doubt_dwell",
    "client.read_latencies": "client.read_latency",
}

Stats = TypeVar("Stats")


def bucket_index(value: float) -> int:
    """The geometric bucket a positive value falls into."""
    return math.floor(math.log(value) / _LOG_GROWTH + _EDGE_EPS)


def summarize(samples: List[float]) -> dict:
    """Count, sum, mean, min/max and the standard percentiles.

    Every sample measures elapsed simulated time, so none is negative.
    Count, sum, min and max are exact; a percentile is the nearest-rank
    sample's bucket representative (its geometric middle, clamped into
    ``[min, max]``), zero for a rank among the zeros, and the exact max
    for the top rank.  The sum is added in observation order with
    ``+=``: ``sum()`` compensates on Python 3.12+ and would move the
    mean's last bits between interpreters.
    """
    if not samples:
        return {"count": 0}
    total = 0.0
    zeros = 0
    buckets: Dict[int, int] = {}
    for value in samples:
        if value < 0:
            raise ValueError(f"samples are elapsed times; got {value}")
        total += value
        if value == 0:
            zeros += 1
        else:
            index = bucket_index(value)
            buckets[index] = buckets.get(index, 0) + 1
    count = len(samples)
    low, high = min(samples), max(samples)
    summary = {"count": count, "sum": total, "mean": total / count,
               "min": low, "max": high}
    ranked = sorted(buckets.items())
    for p in SUMMARY_PERCENTILES:
        rank = max(1, -(-count * p // 100))  # ceil, rank >= 1
        if rank >= count:
            value = float(high)
        elif rank <= zeros:
            value = 0.0
        else:
            seen = zeros
            for index, held in ranked:
                seen += held
                if rank <= seen:
                    break
            value = min(max(GROWTH ** (index + 0.5), low), high)
        summary[f"p{p:g}"] = value
    return summary


class MetricsRegistry:
    """A cluster's live stats objects by metric prefix; read, not copied."""

    def __init__(self) -> None:
        self.sources: Dict[str, Any] = {}
        #: sample lists no component owns, by histogram name
        self.samples: Dict[str, List[float]] = {}

    def share(self, prefix: str, stats: Stats) -> Stats:
        """The one stats object counted under ``prefix``: the first one
        offered is registered and every later offer gets it back."""
        return self.sources.setdefault(prefix, stats)

    def snapshot(self) -> dict:
        """Every registered value as it is now: sorted, JSON-ready."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms = {name: summarize(samples)
                      for name, samples in self.samples.items()}
        for prefix, stats in self.sources.items():
            values = gauges if prefix in GAUGE_PREFIXES else counters
            for spec in fields(stats):
                name = f"{prefix}.{spec.name}"
                name = RENAMED.get(name, name)
                value = getattr(stats, spec.name)
                if isinstance(value, list):
                    histograms[name] = summarize(value)
                elif isinstance(value, dict):
                    for key, amount in value.items():
                        values[f"{name}.{key}"] = amount
                else:
                    values[name] = value
        return {"counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
                "histograms": dict(sorted(histograms.items()))}

    def __repr__(self) -> str:
        return f"MetricsRegistry({sorted(self.sources)})"


class MetricsSnapshot(dict):
    """A finished run's snapshot as plain data — what a result carries
    across a process pool.  ``snapshot()`` returns it, so one call
    reads a live registry and a result's alike."""

    def snapshot(self) -> dict:
        return self
