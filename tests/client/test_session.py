"""Integration tests for ClientSession on a live simulated cluster."""

from math import inf

import pytest

from repro import Cluster, FaultAction, apply_schedule
from repro.client.session import SessionSpec


def make_cluster(**kwargs):
    cluster = Cluster(processors=3, seed=7, audit=True, **kwargs)
    for obj in ("x", "y", "z"):
        cluster.place(obj, holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    return cluster


def run_program(cluster, session, program, tag="t"):
    proc = cluster.sim.process(
        session.run_program(program, tag=tag, retries=3))
    cluster.sim.run(until=proc)
    return proc.value


def settle(cluster, outcome):
    cluster.sim.run(until=outcome)
    return outcome.value


# -- spec validation ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SessionSpec(cache_capacity=-1)
    with pytest.raises(ValueError):
        SessionSpec(cache_policy="write-around")
    with pytest.raises(ValueError):
        SessionSpec(lease_duration=-1.0)
    with pytest.raises(ValueError):
        SessionSpec(cache_policy="write-back")  # needs a cache
    assert not SessionSpec().enabled
    assert SessionSpec(cache_capacity=1).enabled
    assert SessionSpec(lease_duration=1.0).enabled


def test_leases_need_a_view_state_protocol():
    from repro.protocols import protocol_factory

    cluster = make_cluster(protocol=protocol_factory("rowa"))
    with pytest.raises(ValueError, match="no view state"):
        cluster.session(1, lease_duration=5.0)
    # cache-only sessions are fine on any protocol
    cluster.session(1, cache_capacity=4)


def test_sessions_on_one_processor_must_agree_on_lease_duration():
    cluster = make_cluster()
    cluster.session(1, lease_duration=5.0)
    with pytest.raises(ValueError, match="must agree"):
        cluster.session(1, lease_duration=2.5)
    # equal durations share the processor's table
    a = cluster.session(1, lease_duration=5.0)
    b = cluster.session(1, lease_duration=5.0)
    assert a.lease_table is b.lease_table


def test_cluster_session_rejects_spec_plus_knobs():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        cluster.session(1, SessionSpec(cache_capacity=2), cache_capacity=4)


# -- cache behaviour through real programs -----------------------------------


def test_repeat_read_served_from_cache_with_leases_off():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=4)
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 0
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 0
    assert session.stats.cache_reads == 1
    assert session.stats.remote_reads == 1
    assert session.stats.programs_local == 1


def test_write_through_fills_the_cache_with_the_committed_value():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=4)
    committed, _ = run_program(cluster, session, [("w", "x")], tag="a")
    assert committed
    assert session.stats.remote_writes == 1
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == "a/w0"
    assert session.stats.cache_reads == 1


def test_write_back_is_local_and_read_your_writes():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=4,
                              cache_policy="write-back")
    committed, _ = run_program(cluster, session, [("w", "x")], tag="a")
    assert committed
    assert session.stats.programs_local == 1, "no protocol txn needed"
    assert session.stats.remote_writes == 0
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == "a/w0", "read-your-writes"
    # the store has not seen the write yet
    assert settle(cluster, cluster.read_once(2, "x")) == (True, 0)


def test_drain_flushes_pending_write_back_values():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=4,
                              cache_policy="write-back")
    run_program(cluster, session, [("w", "x")], tag="a")
    proc = cluster.sim.process(session.drain(retries=3))
    cluster.sim.run(until=proc)
    assert proc.value is True
    assert settle(cluster, cluster.read_once(2, "x")) == (True, "a/w0")
    assert not session.cache.dirty_items()


def test_dirty_eviction_rides_the_next_transaction():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=1,
                              cache_policy="write-back")
    run_program(cluster, session, [("w", "x")], tag="a")
    # writing y evicts dirty x, which must flush in y's transaction
    committed, _ = run_program(cluster, session, [("w", "y")], tag="b")
    assert committed
    assert session.stats.flush_writes == 1
    assert settle(cluster, cluster.read_once(2, "x")) == (True, "a/w0")


# -- lease behaviour ---------------------------------------------------------


def test_lease_serves_repeat_read_then_expires():
    cluster = make_cluster()
    session = cluster.session(1, lease_duration=5.0)
    run_program(cluster, session, [("r", "x")])
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 0
    assert session.stats.lease_reads == 1
    assert session.stats.staleness and \
        session.stats.staleness[0] <= session.staleness_bound
    cluster.run(until=cluster.sim.now + 6.0)  # past L
    run_program(cluster, session, [("r", "x")])
    assert session.stats.remote_reads == 2
    assert session.lease_table.stats.expired == 1
    assert cluster.auditor.violations == []


def test_local_write_commit_invalidates_the_lease():
    cluster = make_cluster()
    session = cluster.session(1, lease_duration=10.0)
    run_program(cluster, session, [("r", "x")])
    assert len(session.lease_table) == 1
    assert settle(cluster, cluster.write_once(1, "x", 99))[0]
    assert len(session.lease_table) == 0
    assert session.lease_table.stats.invalidated == 1
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 99, "stale lease value must not serve"
    assert cluster.auditor.violations == []


def test_membership_event_revokes_the_lease():
    cluster = make_cluster()
    session = cluster.session(1, lease_duration=10.0)
    run_program(cluster, session, [("r", "x")])
    assert len(session.lease_table) == 1
    epoch_before = cluster.protocol(1).state.epoch
    apply_schedule(cluster.injector,
                   [FaultAction(cluster.sim.now + 0.5, "crash", (3,), inf)])
    cluster.run(until=cluster.sim.now + 25.0)  # past probe detection
    assert cluster.protocol(1).state.epoch > epoch_before
    run_program(cluster, session, [("r", "x")])
    assert session.lease_table.stats.revoked == 1
    assert session.stats.remote_reads == 2
    assert cluster.auditor.violations == []


def test_fully_local_program_commits_with_zero_latency():
    cluster = make_cluster()
    session = cluster.session(1, cache_capacity=4,
                              cache_policy="write-back", lease_duration=5.0)
    run_program(cluster, session, [("r", "x")])
    before = cluster.sim.now
    committed, _ = run_program(cluster, session, [("r", "x"), ("w", "y")],
                               tag="c")
    assert committed
    assert cluster.sim.now == before, "local programs advance no sim time"
    assert session.stats.programs_local == 1, "no protocol txn needed"
    assert cluster.auditor.violations == []
