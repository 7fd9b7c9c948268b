"""Unit tests for the directory layer."""

import pytest

from repro.core.views import CopyPlacement, nearest_first
from repro.shard.directory import (
    CachedDirectory,
    LocalDirectory,
    make_directory,
)


@pytest.fixture()
def placement():
    p = CopyPlacement()
    p.place("x", holders=[1, 2, 3])
    p.place("a", holders={1: 2, 4: 1})
    p.place("solo", holders=[2])
    return p


def test_local_directory_matches_placement(placement):
    directory = LocalDirectory(placement)
    for obj in ("x", "a", "solo"):
        assert directory.copies(obj) == placement.copies(obj)
        for view in ({1}, {1, 2}, {1, 2, 3, 4}):
            assert directory.accessible(obj, view) == \
                placement.accessible(obj, view)


def test_local_directory_read_candidates_order(placement):
    directory = LocalDirectory(placement)
    distance = {1: 0.0, 2: 0.4, 3: 0.2}.__getitem__
    assert directory.read_candidates("x", {1, 2, 3}, distance) == \
        nearest_first(placement.weights("x"), {1, 2, 3}, distance) == [1, 3, 2]


def test_write_targets_are_view_restricted_and_sorted(placement):
    directory = LocalDirectory(placement)
    assert directory.write_targets("x", {3, 1, 9}) == [1, 3]
    assert directory.write_targets("solo", {1, 3}) == []


def test_local_directory_always_hits(placement):
    directory = LocalDirectory(placement)
    directory.entry("x")
    directory.read_candidates("x", {1, 2}, lambda _p: 0.0)
    assert directory.stats.lookups == 2
    assert directory.stats.hits == 2
    assert directory.stats.misses == directory.stats.evictions == 0


def test_cached_directory_counts_misses_hits_and_evictions(placement):
    directory = CachedDirectory(placement, capacity=2)
    directory.entry("x")          # miss
    directory.entry("x")          # hit
    directory.entry("a")          # miss
    directory.entry("solo")       # miss -> evicts x (LRU)
    directory.entry("x")          # miss again
    stats = directory.stats
    assert stats.lookups == 5
    assert stats.hits == 1
    assert stats.misses == 4
    assert stats.evictions == 2


def test_cached_directory_lru_refresh_on_hit(placement):
    directory = CachedDirectory(placement, capacity=2)
    directory.entry("x")
    directory.entry("a")
    directory.entry("x")          # refresh: "a" is now the LRU entry
    directory.entry("solo")       # evicts "a", not "x"
    assert directory.stats.evictions == 1
    directory.entry("x")          # still cached
    assert directory.stats.hits == 2


def test_cached_directory_serves_correct_entries(placement):
    directory = CachedDirectory(placement, capacity=1)
    for obj in ("x", "a", "solo", "a", "x"):
        assert dict(directory.entry(obj)) == dict(placement.weights(obj))
        for view in ({1}, {1, 2, 3, 4}):
            assert directory.accessible(obj, view) == \
                placement.accessible(obj, view)


def test_cached_directory_capacity_validation(placement):
    with pytest.raises(ValueError, match="capacity"):
        CachedDirectory(placement, capacity=0)


def test_unknown_object_propagates(placement):
    for directory in (LocalDirectory(placement),
                      CachedDirectory(placement)):
        with pytest.raises(KeyError, match="ghost"):
            directory.entry("ghost")


def test_make_directory(placement):
    local = make_directory("local")(1, placement)
    assert isinstance(local, LocalDirectory)
    cached = make_directory("cached", 7)(2, placement)
    assert isinstance(cached, CachedDirectory) and cached.capacity == 7
    with pytest.raises(KeyError, match="unknown directory"):
        make_directory("global")


# -- placement epochs & invalidation (online resharding) ---------------------


def test_local_directory_route_epoch_is_live(placement):
    directory = LocalDirectory(placement)
    assert directory.route_epoch("x") == 0
    placement.begin_migration("x", [4])
    placement.commit_migration("x")
    assert directory.route_epoch("x") == 1
    assert directory.invalidate("x") is False    # nothing cached, no-op


def test_cached_directory_epoch_invalidates_stale_entry(placement):
    directory = CachedDirectory(placement, capacity=4)
    assert dict(directory.entry("x")) == {1: 1, 2: 1, 3: 1}
    assert directory.route_epoch("x") == 0

    placement.begin_migration("x", [4])
    placement.commit_migration("x")
    # the cached route is now a stale epoch: reported as-is (the access
    # path stamps it so servers can reject), refetched on next lookup
    assert directory.route_epoch("x") == 0
    assert dict(directory.entry("x")) == {4: 1}
    assert directory.route_epoch("x") == 1
    assert directory.stats.invalidations == 1
    assert directory.stats.misses == 2


def test_cached_directory_explicit_invalidate(placement):
    directory = CachedDirectory(placement, capacity=4)
    directory.entry("x")
    assert directory.invalidate("x") is True
    assert directory.invalidate("x") is False    # already gone
    assert directory.stats.invalidations == 1
    directory.entry("x")
    assert directory.stats.misses == 2


def test_cached_directory_uncached_route_epoch_is_live(placement):
    directory = CachedDirectory(placement, capacity=4)
    placement.begin_migration("x", [4])
    placement.commit_migration("x")
    assert directory.route_epoch("x") == 1
