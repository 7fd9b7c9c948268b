"""Unit tests for the Fig. 3 shared state."""

import pytest

from repro.analysis.history import History
from repro.core.ids import VpId
from repro.core.state import ReplicaState
from repro.sim import Simulator


@pytest.fixture()
def history():
    return History()


@pytest.fixture()
def state(history):
    return ReplicaState(pid=3, sim=Simulator(), history=history)


def test_boot_state(state):
    assert state.assigned
    assert state.cur_id == VpId(0, 3)
    assert state.max_id == VpId(0, 3)
    assert state.lview == {3}
    assert state.locked == set()


def test_depart_clears_assignment_only(state):
    state.depart()
    assert not state.assigned
    assert state.cur_id == VpId(0, 3)  # "last assigned" is remembered
    assert state.lview == {3}


def test_depart_is_idempotent(state):
    state.depart()
    epoch = state.epoch
    state.depart()
    assert state.epoch == epoch


def test_join_updates_everything(state, history):
    state.join(VpId(4, 1), {1, 2, 3}, {1: (VpId(3, 1), frozenset({"x"}))})
    assert state.assigned
    assert state.cur_id == VpId(4, 1)
    assert state.lview == {1, 2, 3}
    assert state.previous_map[1][0] == VpId(3, 1)
    assert history.view_of(VpId(4, 1)) == frozenset({1, 2, 3})


def test_join_while_assigned_departs_first(state, history):
    state.join(VpId(1, 1), {1, 3})
    state.join(VpId(2, 1), {1, 2, 3})
    departed = [(pid, vpid) for _, pid, vpid in history.departs]
    assert (3, VpId(0, 3)) in departed
    assert (3, VpId(1, 1)) in departed


def test_max_id_monotonic(state):
    state.max_id = VpId(5, 1)
    with pytest.raises(ValueError):
        state.max_id = VpId(4, 9)


def test_storeless_state_journals_its_max_id_bump_as_a_forced_record(state):
    """Built without a store, the state makes its own engine: there is
    no un-journalled kind of durable cell."""
    engine = state._store
    assert engine.stats.forced_syncs == 0
    state.max_id = VpId(5, 1)
    assert engine.stats.forced_syncs == 1
    record = list(engine.wal)[-1]
    assert (record.kind, record.cell, record.value, record.forced) == (
        "cell", "max-id", VpId(5, 1), True)
    assert engine.rebuilt().cell("max-id") == VpId(5, 1)


def test_a_state_on_a_used_engine_keeps_its_max_id(state):
    # a boot over the same engine finds the value it left: the live
    # value wins over the new boot identifier, and nothing is journalled
    state.max_id = VpId(42, 3)
    appends = state._store.stats.wal_appends
    again = ReplicaState(pid=3, sim=Simulator(), store=state._store)
    assert again.max_id == VpId(42, 3)
    assert state._store.stats.wal_appends == appends


def test_max_id_survives_crash(state):
    state.max_id = VpId(7, 3)
    state.reset_volatile()
    assert state.max_id == VpId(7, 3)


def test_reset_volatile_clears_view_and_locks(state):
    state.join(VpId(2, 1), {1, 2, 3})
    state.lock_objects({"x", "y"})
    state.reset_volatile()
    assert not state.assigned
    assert state.lview == {3}
    assert state.locked == set()
    assert state.previous_map == {}


def test_reboot_mints_fresh_higher_id(state):
    state.max_id = VpId(9, 1)
    state.reset_volatile()
    state.reboot()
    assert state.assigned
    assert state.cur_id == VpId(10, 3)
    assert state.cur_id > VpId(9, 1)
    assert state.lview == {3}


def test_locked_set_notifications(state):
    sim = state.sim
    observed = []

    def waiter():
        while "x" in state.locked:
            yield state.locked_changed.wait()
        observed.append(sim.now)

    state.lock_objects({"x"})
    sim.process(waiter())
    # a notification that leaves "x" locked: the loop re-checks, waits on
    sim.timeout(2.0).add_callback(lambda e: state.lock_objects({"y"}))
    sim.timeout(5.0).add_callback(lambda e: state.unlock_object("x"))
    sim.run()
    assert observed == [5.0]


def test_partition_change_notifier(state):
    sim = state.sim
    fired = []

    def waiter():
        yield state.partition_changed.wait()
        fired.append(sim.now)

    sim.process(waiter())
    sim.timeout(2.0).add_callback(
        lambda e: state.join(VpId(1, 1), {1, 3}))
    sim.run()
    assert fired == [2.0]


def test_join_and_depart_recorded_in_history():
    history = History()
    state = ReplicaState(pid=3, sim=Simulator(), history=history)
    state.join(VpId(1, 1), {1, 3})
    state.depart()
    assert (0.0, 3, VpId(1, 1), frozenset({1, 3})) in history.joins
    assert any(vpid == VpId(1, 1) for _, _, vpid in history.departs)
