"""Placement policies: map thousands of logical objects onto per-object
weighted placements of bounded degree.

The paper's §4 machinery (``CopyPlacement``, rule R1's weighted
majority) already supports *arbitrary* per-object placements — Example
2's a²b/b²c/c²d/d²a layout is the seed — but every experiment so far
enumerated objects by hand.  A :class:`PlacementPolicy` turns that into
a bulk operation: given the object names and the cluster's processors,
it returns one ``{pid: weight}`` assignment per object, with the
**primary** copy-holder first (dict insertion order is the contract —
the workload layer derives home-shard affinity from it).

All policies are deterministic pure functions of their parameters
(the hash ring derives every choice from sha256, like
:mod:`repro.sim.rng`), so the same spec always yields the same
sharding on any machine.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Sequence

#: one object's placement: ``{pid: weight}``, primary holder first
Assignment = Dict[int, int]


def _hash(token: str) -> int:
    """A stable 64-bit hash (process-independent, unlike ``hash()``)."""
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class PlacementPolicy:
    """Assigns copy-holders (and weights) to logical objects in bulk; a
    policy supplies ``_one(index, obj, ring)``, one object's placement
    (``ring`` is the sorted pid list)."""

    #: short identifier used by specs, the CLI, and benchmark tables
    name: str = "abstract"
    _one: Callable[[int, str, List[int]], Assignment]

    def __init__(self, degree: int = 3):
        if degree < 1:
            raise ValueError(f"replication degree must be >= 1: {degree}")
        self.degree = degree

    def assign(self, objects: Sequence[str],
               pids: Sequence[int]) -> Dict[str, Assignment]:
        """``{obj: {pid: weight}}`` for every object, primary first."""
        ring = sorted(set(pids))
        if not ring:
            raise ValueError("cannot place objects on an empty cluster")
        if self.degree > len(ring):
            raise ValueError(
                f"{self.name}: replication degree {self.degree} exceeds "
                f"the cluster size {len(ring)}"
            )
        return {obj: self._one(index, obj, ring)
                for index, obj in enumerate(objects)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree})"


class HashRingPolicy(PlacementPolicy):
    """Consistent hashing: each processor owns ``vnodes`` points on a
    ring; an object hashes to a point and takes the next ``degree``
    distinct processors clockwise (all weight 1).

    Adding or removing one processor moves only the objects whose
    arc it owned — the classic elasticity argument — and the vnode
    count trades balance for ring size.
    """

    name = "hash-ring"

    def __init__(self, degree: int = 3, vnodes: int = 64):
        super().__init__(degree)
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.vnodes = vnodes
        self._ring_for: Dict[tuple, tuple] = {}

    def _ring(self, pids: List[int]) -> tuple:
        key = tuple(pids)
        if key not in self._ring_for:
            points = sorted(
                (_hash(f"node:{pid}:{v}"), pid)
                for pid in pids for v in range(self.vnodes)
            )
            self._ring_for[key] = (
                [p[0] for p in points], [p[1] for p in points])
        return self._ring_for[key]

    def _one(self, index: int, obj: str, ring: List[int]) -> Assignment:
        hashes, owners = self._ring(ring)
        start = bisect.bisect_left(hashes, _hash(f"obj:{obj}"))
        holders: List[int] = []
        for step in range(len(owners)):
            pid = owners[(start + step) % len(owners)]
            if pid not in holders:
                holders.append(pid)
                if len(holders) == self.degree:
                    break
        return {pid: 1 for pid in holders}


class WeightedHomePolicy(PlacementPolicy):
    """Example 2's layout, generalized: object ``i``'s *home* processor
    (round-robin on the ring) holds a copy of weight ``degree``; the
    next ``degree - 1`` ring successors hold weight-1 copies.

    Total weight is ``2*degree - 1``, so the home copy alone is a
    weighted majority while *all* the light copies together are not:
    the object is accessible exactly in views containing its home.
    With 4 processors and ``degree=2`` this reproduces the paper's
    a²b / b²c / c²d / d²a placement verbatim.
    """

    name = "weighted-home"

    def _one(self, index: int, obj: str, ring: List[int]) -> Assignment:
        home = index % len(ring)
        weights: Assignment = {ring[home]: self.degree}
        for step in range(1, self.degree):
            weights[ring[(home + step) % len(ring)]] = 1
        return weights


#: policy registry: name -> constructor(degree=..., **kwargs)
POLICIES = {
    HashRingPolicy.name: HashRingPolicy,
    WeightedHomePolicy.name: WeightedHomePolicy,
}


def make_policy(name: str, degree: int = 3, **kwargs: int) -> PlacementPolicy:
    """Resolve a policy name (as specs and the CLI carry it) to an
    instance."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown placement policy {name!r}; choose from "
            f"{sorted(POLICIES)}"
        ) from None
    return cls(degree=degree, **kwargs)
