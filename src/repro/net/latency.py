"""Latency models: message delays and the "nearest copy" metric.

Every model declares ``bound`` — the δ of the paper: the maximum
transmission delay between any two connected processors.  Protocol
timers (2δ, 3δ waits, the Δ = π + 8δ liveness bound) are derived from
it.  ``distance`` gives the *expected* delay and defines which copy is
"nearest" for the read-one rule.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence


class LatencyModel:
    """Strategy interface for message delays: a model supplies
    ``bound`` (the paper's δ, an upper bound on one-way delay),
    ``delay(src, dst, rng)`` (one message's sampled delay) and
    ``distance(src, dst)`` (the expected delay; the read-one rule
    reads the minimum-distance copy)."""


class FixedLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0):
        if value <= 0:
            raise ValueError(f"latency must be positive, got {value}")
        self.value = value

    @property
    def bound(self) -> float:
        return self.value

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        return self.value

    def distance(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.value

    def __repr__(self) -> str:
        return f"FixedLatency({self.value})"


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]`` for every pair."""

    def __init__(self, low: float = 0.5, high: float = 1.0):
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    @property
    def bound(self) -> float:
        return self.high

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def distance(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class DistanceLatency(LatencyModel):
    """Per-pair base delays from a distance table, with optional jitter.

    ``distances[(a, b)]`` (order-insensitive) gives the base one-way
    delay.  Missing pairs use ``default``.  Jitter multiplies the base
    by a uniform factor in ``[1, 1 + jitter]``.  This is the model that
    makes "read the nearest copy" meaningful: a local copy costs
    ``local``, nearby copies cost less than remote ones.
    """

    def __init__(self, distances: Mapping[tuple[int, int], float],
                 default: float = 1.0, jitter: float = 0.0,
                 local: float = 0.01):
        self._distances: dict[frozenset[int], float] = {}
        for (a, b), value in distances.items():
            if value <= 0:
                raise ValueError(f"distance for ({a},{b}) must be positive")
            self._distances[frozenset((a, b))] = float(value)
        if default <= 0:
            raise ValueError("default distance must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.default = default
        self.jitter = jitter
        self.local = local

    @property
    def bound(self) -> float:
        widest = max(self._distances.values(), default=self.default)
        widest = max(widest, self.default)
        return widest * (1.0 + self.jitter)

    def base(self, src: int, dst: int) -> float:
        if src == dst:
            return self.local
        return self._distances.get(frozenset((src, dst)), self.default)

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        base = self.base(src, dst)
        if self.jitter:
            return base * rng.uniform(1.0, 1.0 + self.jitter)
        return base

    def distance(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.base(src, dst)

    def __repr__(self) -> str:
        return (f"DistanceLatency({len(self._distances)} pairs, "
                f"default={self.default}, jitter={self.jitter})")


def ring_distances(nodes: Sequence[int], near: float = 0.2,
                   far_step: float = 0.4) -> dict[tuple[int, int], float]:
    """Convenience: distances proportional to hop count around a ring.

    Useful for experiments where each processor has an unambiguous
    nearest neighbour.
    """
    ordered = list(nodes)
    n = len(ordered)
    table: dict[tuple[int, int], float] = {}
    for i, a in enumerate(ordered):
        for j in range(i + 1, n):
            b = ordered[j]
            hops = min(j - i, n - (j - i))
            table[(a, b)] = near + far_step * (hops - 1)
    return table
