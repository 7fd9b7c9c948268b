"""Shard-aware workload shaping: home-biased per-client object pools.

A sharded deployment places data near the clients that use it; a
scaling benchmark that ignores this measures only the evaporation of
local-copy luck as the cluster grows.  :class:`HomeFirstPools` gives
every client the full keyspace but *ordered* so the objects whose
primary copy lives on the client's own processor come first — under a
Zipf-skewed :class:`~repro.workload.generator.WorkloadGenerator`, rank
order is popularity order, so each client's traffic is mostly
home-shard with a heavy cross-shard tail.  Transactions drawing
several objects routinely mix home and remote shards, which is
exactly the cross-shard 2PC traffic the directory layer routes.

The pools are a pure function of (placement policy, cluster size,
object count, seed): picklable plain data, recomputed identically in
parallel sweep workers, and guaranteed to agree with the placement the
experiment runner installs from the same spec fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .policy import make_policy


def object_names(count: int) -> List[str]:
    """The harness's canonical object naming (``o0`` .. ``o<count-1>``)."""
    return [f"o{i}" for i in range(count)]


def primary_of(assignment: Dict[int, int]) -> int:
    """The primary copy-holder: first key, by the policy contract."""
    return next(iter(assignment))


@dataclass
class HomeFirstPools:
    """Picklable ``objects_for`` callback: home-shard objects first.

    Mirrors the :class:`~repro.workload.runner.ExperimentSpec` fields
    that determine placement, so a spec carrying this callback stays
    self-consistent when it crosses a process boundary.
    """

    placement: str
    processors: int
    objects: int
    degree: int
    _pools: Optional[Dict[int, Tuple[str, ...]]] = field(
        default=None, repr=False, compare=False)

    def __call__(self, pid: int, client: int) -> Tuple[str, ...]:
        if self._pools is None:
            self._pools = self._build()
        return self._pools[pid]

    def _build(self) -> Dict[int, Tuple[str, ...]]:
        pids = list(range(1, self.processors + 1))
        names = object_names(self.objects)
        policy = make_policy(self.placement, degree=self.degree)
        assignments = policy.assign(names, pids)
        by_home: Dict[int, List[str]] = {pid: [] for pid in pids}
        for obj in names:
            by_home[primary_of(assignments[obj])].append(obj)
        pools: Dict[int, Tuple[str, ...]] = {}
        for pid in pids:
            home = by_home[pid]
            rest = [obj for obj in names if obj not in set(home)]
            pools[pid] = tuple(home + rest)
        return pools
