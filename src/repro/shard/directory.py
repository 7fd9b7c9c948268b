"""The directory layer: where transactions find an object's copies.

Fan-out used to assume the local placement table — fine for a handful
of processors with full replication, wrong as a model once thousands of
objects shard across tens-to-hundreds of nodes.  A :class:`Directory`
makes the lookup explicit: every client-side routing decision in
Figs. 10–11 (is this object accessible from my view? which copy do I
read? which copies take the write?) goes through one, and the lookup
traffic becomes a first-class measured quantity.

Two implementations:

* :class:`LocalDirectory` — every processor holds the full placement
  map (the paper's implicit assumption, and the default everywhere).
  Lookups are free and always hit; behaviour is bit-identical to the
  pre-directory code, pinned by the golden trace sha.
* :class:`CachedDirectory` — a bounded LRU over the authoritative map,
  modelling a processor that only materializes entries it routes to.
  Misses consult the authority (charged to the stats, not to model
  time — the entry would ride an existing message in a real system)
  and evict cold entries, so the miss counter is the directory
  bandwidth a deployment at that cache size would pay.

Server-side checks (the R4 vote, recovery's accessibility scans) stay
on the authoritative :class:`~repro.core.views.CopyPlacement`: a vote
must not depend on the voter's cache temperature.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..core.views import CopyPlacement, weighted_majority

#: caller-supplied expected-delay function (usually ``protocol.distance``)
DistanceFn = Callable[[int], float]


@dataclass
class DirectoryStats:
    """Lookup accounting (plain data, picklable); a cluster's
    directories share one."""

    #: entry resolutions requested by the routing layer
    lookups: int = 0
    #: lookups served from a local/cached entry
    hits: int = 0
    #: lookups that had to consult the authoritative map
    misses: int = 0
    #: cached entries displaced by capacity pressure
    evictions: int = 0
    #: cached entries dropped because their placement epoch went stale
    #: (a concurrent reshard flipped the authoritative entry) or an
    #: explicit ``invalidate(obj)`` removed them
    invalidations: int = 0


class Directory:
    """Routes logical accesses to copy-holders; a directory supplies
    ``entry(obj)``, the stats-counted ``{pid: weight}`` entry."""

    entry: Callable[[str], Mapping[int, int]]

    def __init__(self) -> None:
        self.stats = DirectoryStats()

    def copies(self, obj: str) -> set:
        """The processors holding a copy of ``obj``."""
        return set(self.entry(obj))

    def accessible(self, obj: str, view: Iterable[int]) -> bool:
        """Rule R1's weighted-majority test, off the directory entry."""
        return weighted_majority(self.entry(obj), view)

    def read_candidates(self, obj: str, view: Iterable[int],
                        distance: DistanceFn) -> List[int]:
        """Copy holders inside ``view``, nearest first (rule R2)."""
        members = set(view)
        candidates = [p for p in self.entry(obj) if p in members]
        return sorted(candidates, key=lambda p: (distance(p), p))

    def write_targets(self, obj: str, view: Iterable[int]) -> List[int]:
        """Every copy holder inside ``view`` (rule R3), sorted."""
        members = set(view)
        return sorted(p for p in self.entry(obj) if p in members)

    def invalidate(self, obj: str) -> bool:
        """Drop any cached entry for ``obj``; True if one was dropped.

        The base directory caches nothing, so this is a no-op — the
        migration engine calls it unconditionally after a flip.
        """
        return False


class LocalDirectory(Directory):
    """Full placement map on every processor — always hits."""

    def __init__(self, placement: CopyPlacement):
        super().__init__()
        self.placement = placement

    def entry(self, obj: str) -> Mapping[int, int]:
        self.stats.lookups += 1
        self.stats.hits += 1
        return self.placement.weights(obj)

    def read_candidates(self, obj: str, view: Iterable[int],
                        distance: DistanceFn) -> List[int]:
        # Delegate so ordering semantics stay defined in one place.
        self.stats.lookups += 1
        self.stats.hits += 1
        return self.placement.holders_by_distance(obj, view, distance)

    def route_epoch(self, obj: str) -> int:
        """The placement epoch this directory routes ``obj`` on, counting
        no lookup (it rides every access-path stamp): here always the
        live one, as routes come straight off the authoritative map."""
        return self.placement.epoch_of(obj)

    def __repr__(self) -> str:
        return f"LocalDirectory({self.placement!r})"


class CachedDirectory(Directory):
    """Bounded LRU over the authoritative placement map.

    Entries are tagged with the placement epoch they were cached at.  A
    lookup whose cached epoch no longer matches the authoritative one
    (a reshard flipped the entry) counts an invalidation and refetches,
    so a flip can at worst cost one extra authority consultation per
    cached route — never a stale read: the access path additionally
    stamps the route epoch into each physical request and servers
    reject mismatches.
    """

    def __init__(self, placement: CopyPlacement, capacity: int = 128):
        super().__init__()
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.placement = placement
        self.capacity = capacity
        self._cache: "OrderedDict[str, tuple[int, Dict[int, int]]]" = \
            OrderedDict()

    def entry(self, obj: str) -> Mapping[int, int]:
        self.stats.lookups += 1
        cached = self._cache.get(obj)
        if cached is not None:
            epoch, weights = cached
            if epoch == self.placement.epoch_of(obj):
                self.stats.hits += 1
                self._cache.move_to_end(obj)
                return weights
            del self._cache[obj]
            self.stats.invalidations += 1
        self.stats.misses += 1
        epoch = self.placement.epoch_of(obj)
        weights = dict(self.placement.weights(obj))
        self._cache[obj] = (epoch, weights)
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1
        return weights

    def route_epoch(self, obj: str) -> int:
        cached = self._cache.get(obj)
        if cached is not None:
            return cached[0]
        return self.placement.epoch_of(obj)

    def invalidate(self, obj: str) -> bool:
        if self._cache.pop(obj, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    def __repr__(self) -> str:
        return (f"CachedDirectory(capacity={self.capacity}, "
                f"cached={len(self._cache)})")


#: directory factory signature used by the cluster: (pid, placement)
DirectoryFactory = Callable[[int, CopyPlacement], Directory]


def make_directory(name: str,
                   capacity: Optional[int] = None) -> DirectoryFactory:
    """Resolve a directory kind name to a per-processor factory."""
    if name == "local":
        return lambda _pid, placement: LocalDirectory(placement)
    if name == "cached":
        return lambda _pid, placement: CachedDirectory(
            placement, capacity=capacity or 128)
    raise KeyError(
        f"unknown directory kind {name!r}; choose from ['local', 'cached']")
