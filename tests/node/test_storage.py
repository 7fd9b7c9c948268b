"""Unit tests for the copy table of the durable storage engine."""

import pytest

from repro.node import LogEntry, StorageEngine
from repro.node.storage.wal import REC_INSTALL, REC_PLACE


def test_place_and_read():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    assert store.read("x") == (0, (0, 0))
    assert store.holds("x")
    assert store.local_objects == {"x"}


def test_double_place_rejected():
    store = StorageEngine(1)
    store.place("x")
    with pytest.raises(KeyError):
        store.place("x")


def test_missing_copy_raises():
    store = StorageEngine(1)
    with pytest.raises(KeyError):
        store.read("ghost")


def test_write_updates_value_and_date():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    store.write("x", 42, (1, 3))
    assert store.read("x") == (42, (1, 3))
    assert store.date("x") == (1, 3)


def test_read_and_peek_serve_the_latest_write():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    assert store.read("x") == (0, (0, 0))
    store.write("x", 1, (1, 1))
    assert store.read("x") == (1, (1, 1))
    assert store.peek("x") == store.read("x")


def test_install_does_not_count_as_transaction_write():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    store.install("x", 99, (2, 1))
    assert [record.kind for record in store.wal] == [REC_PLACE, REC_INSTALL]
    assert store.peek("x") == (99, (2, 1))


def test_log_since_returns_missed_writes_in_order():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    store.write("x", 1, (1, 1))
    store.write("x", 2, (2, 1))
    store.write("x", 3, (3, 1))
    missed = store.log_since("x", (1, 1))
    assert [(e.date, e.value) for e in missed] == [((2, 1), 2), ((3, 1), 3)]


def test_log_since_none_returns_full_history():
    store = StorageEngine(1)
    store.place("x", initial=0, date=(0, 0))
    store.write("x", 1, (1, 1))
    assert len(store.log_since("x", None)) == 2  # initial + write


def test_apply_log_catches_up_stale_copy():
    fresh = StorageEngine(1)
    fresh.place("x", initial=0, date=(0, 0))
    fresh.write("x", 10, (1, 1))
    fresh.write("x", 20, (2, 1))

    stale = StorageEngine(2)
    stale.place("x", initial=0, date=(0, 0))
    applied = stale.apply_log("x", fresh.log_since("x", (0, 0)))
    assert applied == 2
    assert stale.peek("x") == (20, (2, 1))


def test_apply_log_skips_already_applied_entries():
    store = StorageEngine(1)
    store.place("x", initial=5, date=(3, 1))
    applied = store.apply_log("x", [LogEntry((1, 1), 1), LogEntry((2, 1), 2)])
    assert applied == 0
    assert store.peek("x") == (5, (3, 1))


def test_object_size_for_transfer_costs():
    store = StorageEngine(1)
    store.place("big", initial=b"...", date=(0, 0), size=1000)
    assert store.size("big") == 1000
    with pytest.raises(ValueError):
        store.place("bad", size=0)


def test_cell_roundtrip():
    engine = StorageEngine(1)
    assert engine.cell("max-id") is None  # never written
    engine.write_cell("max-id", (0, 1))
    assert engine.cell("max-id") == (0, 1)
    engine.write_cell("max-id", (5, 2))
    assert engine.cell("max-id") == (5, 2)
