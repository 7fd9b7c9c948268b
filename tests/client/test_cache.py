"""Unit tests for the per-client LRU session cache."""

import pytest

from repro.client.cache import (
    WRITE_BACK,
    WRITE_THROUGH,
    SessionCache,
)


def test_validation():
    with pytest.raises(ValueError):
        SessionCache(0)
    with pytest.raises(ValueError):
        SessionCache(4, policy="write-around")


def test_lookup_hits_misses_and_hit_rate():
    cache = SessionCache(2)
    assert cache.lookup("x") is None
    cache.put("x", 1)
    assert cache.lookup("x").value == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_peek_does_not_touch_lru_or_counters():
    cache = SessionCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.peek("a")  # no LRU touch: "a" stays oldest
    cache.put("c", 3)
    assert "a" not in cache and "b" in cache and "c" in cache
    assert cache.stats.hits == cache.stats.misses == 0


def test_lru_eviction_order_follows_lookups():
    cache = SessionCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.lookup("a")  # now "b" is oldest
    cache.put("c", 3)
    assert "b" not in cache and "a" in cache


def test_clean_evictions_return_nothing():
    cache = SessionCache(1)
    cache.put("a", 1)
    assert cache.put("b", 2) == []
    assert cache.stats.evictions == 1
    assert cache.stats.dirty_evictions == 0


def test_dirty_eviction_hands_back_the_pending_write():
    cache = SessionCache(1, policy=WRITE_BACK)
    cache.put("a", 1, dirty=True)
    flushes = cache.put("b", 2)
    assert flushes == [("a", 1)]
    assert cache.stats.dirty_evictions == 1


def test_clean_fill_does_not_launder_a_dirty_entry():
    cache = SessionCache(2, policy=WRITE_BACK)
    cache.put("a", "pending", dirty=True)
    cache.put("a", "pending")  # e.g. a refresh with the same value
    assert cache.peek("a").dirty
    assert cache.dirty_items() == [("a", "pending")]


def test_dirty_overwrite_supersedes_last_write_wins():
    cache = SessionCache(2, policy=WRITE_BACK)
    cache.put("a", 1, dirty=True)
    cache.put("a", 2, dirty=True)
    assert cache.dirty_items() == [("a", 2)]


def test_invalidate_drops_clean_but_never_dirty():
    cache = SessionCache(2, policy=WRITE_BACK)
    cache.put("clean", 1)
    cache.put("dirty", 2, dirty=True)
    assert cache.invalidate("clean")
    assert not cache.invalidate("dirty"), "a pending write must survive"
    assert not cache.invalidate("absent")
    assert "dirty" in cache and "clean" not in cache
    assert cache.stats.invalidations == 1


def test_mark_flushed_cleans_only_the_exact_value():
    cache = SessionCache(2, policy=WRITE_BACK)
    cache.put("a", 1, dirty=True)
    cache.mark_flushed("a", 999)  # a different (older) flush
    assert cache.peek("a").dirty
    cache.mark_flushed("a", 1)
    assert not cache.peek("a").dirty


def test_policy_constants():
    assert SessionCache(1).policy == WRITE_THROUGH
    assert SessionCache(1, policy=WRITE_BACK).policy == WRITE_BACK
