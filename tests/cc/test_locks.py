"""Unit tests for the copy lock manager.

``acquire`` returns ``None`` for a lock granted on the spot (no event,
nothing scheduled) and the queued :class:`LockRequest` otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.locks import EXCLUSIVE, SHARED, LockManager
from repro.sim import Simulator
from tests.sim.schedule import ready_events


@pytest.fixture()
def manager():
    return LockManager(Simulator())


def test_shared_locks_are_compatible(manager):
    a = manager.acquire("t1", "x", SHARED)
    b = manager.acquire("t2", "x", SHARED)
    assert a is None and b is None
    assert manager.holders("x") == {"t1": SHARED, "t2": SHARED}
    assert manager.grants == 2 and manager.waits == 0


def test_exclusive_blocks_everyone(manager):
    a = manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", SHARED)
    c = manager.acquire("t3", "x", EXCLUSIVE)
    assert a is None
    assert not b.triggered and not c.triggered
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_release_promotes_fifo(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", SHARED)
    c = manager.acquire("t3", "x", SHARED)
    d = manager.acquire("t4", "x", EXCLUSIVE)
    manager.release_all("t1")
    # Both shared requests are granted together; the exclusive waits.
    assert b.triggered and c.triggered
    assert not d.triggered
    manager.release_all("t2")
    assert not d.triggered
    manager.release_all("t3")
    assert d.triggered


def test_no_barging_behind_queued_exclusive(manager):
    manager.acquire("t1", "x", SHARED)
    b = manager.acquire("t2", "x", EXCLUSIVE)
    c = manager.acquire("t3", "x", SHARED)  # arrives after queued X
    assert not b.triggered
    assert not c.triggered, "shared must not barge past a queued exclusive"
    manager.release_all("t1")
    assert b.triggered and not c.triggered


def test_reentrant_same_mode(manager):
    manager.acquire("t1", "x", SHARED)
    again = manager.acquire("t1", "x", SHARED)
    assert again is None
    assert manager.grants == 1  # a re-entrant hold is not a new grant


def test_x_covers_s(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    read = manager.acquire("t1", "x", SHARED)
    assert read is None
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_upgrade_granted_when_sole_holder(manager):
    manager.acquire("t1", "x", SHARED)
    up = manager.acquire("t1", "x", EXCLUSIVE)
    assert up is None
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_sole_holder_upgrade_passes_a_waiting_queue(manager):
    """Nobody queued can run before the sole holder ends, so its
    upgrade is granted on the spot — never parked at the head as a
    grantable request only a release of this object would notice (the
    table-scan ``release_all`` granted it at the next transaction end
    anywhere on the processor)."""
    manager.acquire("t1", "x", SHARED)
    waiter = manager.acquire("t2", "x", EXCLUSIVE)
    assert manager.acquire("t1", "x", EXCLUSIVE) is None
    assert manager.holders("x") == {"t1": EXCLUSIVE}
    assert not waiter.triggered and manager.queue_length("x") == 1
    manager.release_all("t1")
    assert waiter.triggered and manager.holders("x") == {"t2": EXCLUSIVE}


def test_upgrade_waits_for_other_readers(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t2", "x", SHARED)
    up = manager.acquire("t1", "x", EXCLUSIVE)
    assert not up.triggered
    manager.release_all("t2")
    assert up.triggered and up.value is True
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_cancel_leaves_queue_and_promotes(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", EXCLUSIVE)
    c = manager.acquire("t3", "x", SHARED)
    b.cancel()
    manager.release_all("t1")
    assert not b.triggered
    assert c.triggered


def test_a_dropped_sole_request_leaves_no_touched_entry(manager):
    """A transaction whose only request here times out or is cancelled
    never reaches ``release_all`` on this manager, so the drop itself
    must forget it; one that still holds another object stays listed."""
    sim = manager.sim
    manager.acquire("t1", "x", EXCLUSIVE)
    timed_out = manager.acquire("t2", "x", SHARED)
    cancelled = manager.acquire("t3", "x", EXCLUSIVE)
    manager.acquire("t4", "y", SHARED)
    still_holding = manager.acquire("t4", "x", SHARED)

    def waiter():
        return (yield from sim.wait(timed_out, 5.0, False))

    process = sim.process(waiter())
    cancelled.cancel()
    still_holding.cancel()
    assert sim.run(until=process) is False
    assert manager.queue_length("x") == 0
    assert set(manager._touched) == {"t1", "t4"}
    assert manager._touched["t4"] == {"y"}


def test_release_all_returns_freed_objects(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t1", "y", EXCLUSIVE)
    freed = manager.release_all("t1")
    assert sorted(freed) == ["x", "y"]
    assert manager.holders("x") == {}


def test_holding_txns(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t2", "y", EXCLUSIVE)
    assert manager.holding_txns() == {"t1", "t2"}


def test_unknown_mode_rejected(manager):
    with pytest.raises(ValueError):
        manager.acquire("t1", "x", "Z")


def test_queue_length(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    manager.acquire("t2", "x", SHARED)
    manager.acquire("t3", "x", SHARED)
    assert manager.queue_length("x") == 2
    assert manager.queue_length("never-locked") == 0


def test_locks_on_different_objects_independent(manager):
    a = manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "y", EXCLUSIVE)
    assert a is None and b is None
    assert manager.holders("x") == {"t1": EXCLUSIVE}
    assert manager.holders("y") == {"t2": EXCLUSIVE}


def test_on_the_spot_grant_schedules_nothing(manager):
    """A lock nobody waits for is not an event: no request object, no
    schedule entry."""
    sim = manager.sim
    assert manager.acquire("t1", "x", SHARED) is None       # compatible
    assert manager.acquire("t1", "x", SHARED) is None       # re-entrant
    assert manager.acquire("t1", "x", EXCLUSIVE) is None    # sole upgrade
    assert not sim._queue and not sim._ready
    queued = manager.acquire("t2", "x", SHARED)
    assert not sim._queue and not sim._ready  # parked, not scheduled
    manager.release_all("t1")
    assert ready_events(sim) == [queued]


def test_request_repr_is_built_on_demand(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    request = manager.acquire("t2", "x", SHARED)
    assert request.name == ""  # no per-request f-string on the hot path
    assert repr(request) == "<lock(x,t2,S) queued>"
    manager.release_all("t1")
    assert repr(request) == "<lock(x,t2,S) granted>"


# -- release_all visits only what the transaction touched ---------------------


class TableScanManager(LockManager):
    """The reference ``release_all``: walk the whole lock table, filter
    and promote every queue (what the manager did before it kept a
    transaction → objects index)."""

    def release_all(self, txn):
        freed = []
        for obj, state in list(self._table.items()):
            if txn in state.holders:
                state.holders.pop(txn)
                freed.append(obj)
            state.queue = [r for r in state.queue if r.txn != txn]
            self._promote(obj, state)
            if not state.holders and not state.queue:
                del self._table[obj]
        return freed


_TXNS = st.sampled_from(["t1", "t2", "t3", "t4"])
_OBJS = st.sampled_from(["a", "b", "c"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("acquire"), _TXNS, _OBJS,
              st.sampled_from([SHARED, EXCLUSIVE])),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("release"), _TXNS),
), max_size=40)


def _grant_order(manager):
    """Granted requests in the order the kernel will dispatch them."""
    return [(e.obj, e.txn, e.mode) for e in ready_events(manager.sim)]


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_release_all_matches_a_table_scan(ops):
    indexed = LockManager(Simulator())
    scanned = TableScanManager(Simulator())
    requests = []  # (indexed's, scanned's) queued requests, in issue order
    for op in ops:
        if op[0] == "acquire":
            pair = [m.acquire(*op[1:]) for m in (indexed, scanned)]
            assert (pair[0] is None) == (pair[1] is None)
            if pair[0] is not None:
                requests.append(pair)
        elif op[0] == "cancel":
            if requests:
                for request in requests[op[1] % len(requests)]:
                    request.cancel()
        else:
            assert indexed.release_all(op[1]) == scanned.release_all(op[1])
        assert list(indexed._table) == list(scanned._table)
        for obj in indexed._table:
            assert indexed.holders(obj) == scanned.holders(obj)
            assert indexed.queue_length(obj) == scanned.queue_length(obj)
        assert _grant_order(indexed) == _grant_order(scanned)
        # the index is exact: a txn is listed under precisely the
        # objects it holds or queues on
        listed = {(txn, obj) for txn, objs in indexed._touched.items()
                  for obj in objs}
        assert listed == {
            (txn, obj) for obj, state in indexed._table.items()
            for txn in [*state.holders, *(r.txn for r in state.queue)]}
