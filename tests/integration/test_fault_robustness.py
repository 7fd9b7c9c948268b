"""Integration tests: the protocol under omission and performance failures.

§2's failure classes, each injected explicitly: lost messages, late
(delay-surged) messages, duplicates, crashes mid-transaction, and
combinations — always ending with a one-copy serializability audit.
"""

from math import inf

from repro import (Cluster, CopyOrder, FaultAction, ProtocolConfig,
                   apply_schedule, is_cp_serializable)
from tests.net.routes import on_every_route


def increment(obj="x"):
    def body(txn):
        value = yield from txn.read(obj)
        yield from txn.write(obj, value + 1)
        return value
    return body


def drive_increments(cluster, count=5, obj="x", retries=6, backoff=None):
    """Run increments one at a time, waiting for each to finish (commit
    or exhaust its retries) before launching the next."""
    backoff = backoff or 3 * cluster.config.delta
    outcomes = []
    for index in range(count):
        pid = cluster.pids[index % len(cluster.pids)]
        outcome = cluster.submit(pid, increment(obj), retries=retries,
                                 backoff=backoff)
        cluster.sim.run(until=outcome)
        outcomes.append(outcome)
    return outcomes


def test_message_loss_does_not_break_one_copy_serializability():
    # Note: under this protocol ANY lost probe ack creates a new
    # partition (Fig. 7 line 21 is taken literally), so sustained loss
    # means sustained view churn; transactions ride the stable windows
    # between probe rounds.  1% loss + patient retries is the regime
    # the paper's "failures are rare" analysis assumes.
    cluster = Cluster(processors=5, seed=8)
    copies = CopyOrder(cluster.history)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    apply_schedule(cluster.injector,
                   on_every_route(cluster.pids, "grey", 0.01))
    outcomes = drive_increments(cluster, count=6, retries=12, backoff=8.0)
    committed = sum(1 for o in outcomes if o.value[0])
    assert committed >= 4, "most increments should survive 1% loss"
    assert cluster.check_one_copy_serializable()
    assert is_cp_serializable(copies)
    # the surviving counter equals the number of committed increments
    values = {cluster.processor(p).store.peek("x")[0]
              for p in cluster.pids
              if cluster.protocol(p).available("x", False)}
    assert committed in values


def test_performance_failures_slow_messages():
    """§2: a late message is a failure; the protocol treats the sender
    as unreachable and adapts, but correctness never depends on it."""
    cluster = Cluster(processors=5, seed=9)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    # every message sent in [10, 15) arrives 6 delta late
    apply_schedule(cluster.injector,
                   on_every_route(cluster.pids, "surge", 6.0, 10.0, 5.0))
    outcomes = drive_increments(cluster, count=6, retries=12, backoff=8.0)
    committed = sum(1 for o in outcomes if o.value[0])
    assert committed >= 4
    assert cluster.check_one_copy_serializable()
    assert cluster.network.stats.surged > 0


def test_duplicate_messages_are_harmless():
    cluster = Cluster(processors=5, seed=10)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    apply_schedule(cluster.injector,
                   on_every_route(cluster.pids, "dup", 0.2))
    outcomes = drive_increments(cluster, count=6)
    assert all(o.value[0] for o in outcomes)
    assert cluster.check_one_copy_serializable()
    value, _ = cluster.processor(1).store.peek("x")
    assert value == 6  # duplicates never double-apply a write


def test_crash_during_transaction_rolls_back_dirty_writes():
    cluster = Cluster(processors=3, seed=11)
    cluster.place("x", holders=[1, 2, 3], initial="clean")
    cluster.start()

    def slow_writer(txn):
        yield from txn.write("x", "dirty")
        yield cluster.sim.timeout(50.0)  # crash lands mid-transaction

    outcome = cluster.submit(1, slow_writer)
    cluster.run(until=10.0)  # write applied everywhere, txn still open
    assert cluster.processor(2).store.peek("x")[0] == "dirty"
    # the coordinator dies
    apply_schedule(cluster.injector, [FaultAction(11.0, "crash", (1,), inf)])
    cluster.run(until=300.0)
    # p2/p3 eventually formed a new partition; strict R4 force-aborted
    # the orphan, restoring the before-image.
    assert cluster.processor(2).store.peek("x")[0] == "clean"
    assert cluster.processor(3).store.peek("x")[0] == "clean"
    read = cluster.read_once(2, "x")
    cluster.run(until=cluster.sim.now + 30.0)
    assert read.value == (True, "clean")
    assert cluster.check_one_copy_serializable()


def test_repeated_partition_cycles_converge_and_stay_correct():
    cluster = Cluster(processors=5, seed=12)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    t = 10.0
    for _cycle in range(3):
        apply_schedule(cluster.injector, [
            FaultAction(t, "partition", ((1, 2, 3), (4, 5)), 60.0)])
        t += 120.0
    outcomes = drive_increments(cluster, count=6, retries=12, backoff=8.0)
    committed = sum(1 for o in outcomes if o.value[0])
    assert committed >= 5
    cluster.run(until=max(t, cluster.sim.now)
                + cluster.config.liveness_bound + 20)
    ids = {cluster.protocol(p).current_partition for p in cluster.pids}
    assert len(ids) == 1 and None not in ids
    assert cluster.check_one_copy_serializable()


def test_concurrent_conflicting_transactions_serialize():
    """Two racing increments on the same object must serialize through
    the copy locks — the counter ends at exactly 2."""
    cluster = Cluster(processors=3, seed=13)
    copies = CopyOrder(cluster.history)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    # Distinct backoffs: read-local-then-write-all produces a genuine
    # distributed deadlock (each holds S on its local copy and wants X
    # on the other's); identical retry timing would re-collide forever.
    first = cluster.submit(1, increment(), retries=5, backoff=5.0)
    second = cluster.submit(2, increment(), retries=5, backoff=9.0)
    cluster.run(until=300.0)
    assert first.value[0] and second.value[0]
    assert cluster.processor(3).store.peek("x")[0] == 2
    assert cluster.check_one_copy_serializable()
    assert is_cp_serializable(copies)


def test_deadlock_broken_by_lock_timeout():
    """A classic two-object deadlock: both transactions eventually make
    progress because lock waits time out and the victims retry."""
    cluster = Cluster(processors=3, seed=14)
    cluster.place("a", holders=[1, 2, 3], initial=0)
    cluster.place("b", holders=[1, 2, 3], initial=0)
    cluster.start()

    def a_then_b(txn):
        value = yield from txn.read("a")
        yield cluster.sim.timeout(3.0)
        yield from txn.write("b", value + 1)
        return value

    def b_then_a(txn):
        value = yield from txn.read("b")
        yield cluster.sim.timeout(3.0)
        yield from txn.write("a", value + 1)
        return value

    first = cluster.submit(1, a_then_b, retries=8, backoff=7.0)
    second = cluster.submit(2, b_then_a, retries=8, backoff=11.0)
    cluster.run(until=800.0)
    assert first.value[0] and second.value[0]
    assert cluster.check_one_copy_serializable()


def test_weakened_r4_is_still_one_copy_serializable_under_partitions():
    config = ProtocolConfig(delta=1.0, weakened_r4=True)
    cluster = Cluster(processors=5, seed=15, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [
        FaultAction(20.0, "partition", ((1, 2, 3), (4, 5)), 130.0)])
    outcomes = drive_increments(cluster, count=6)
    committed = sum(1 for o in outcomes if o.value[0])
    assert committed >= 4
    assert cluster.check_one_copy_serializable()


def test_lost_commit_message_heals_via_monitor_timeout():
    """Fig. 6's 3δ timer: if the initiator's commit is lost, acceptors
    start their own creation instead of hanging unassigned forever."""
    cluster = Cluster(processors=3, seed=16)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    lossy = apply_schedule(cluster.injector,
                           on_every_route(cluster.pids, "grey", 0.15))
    apply_schedule(cluster.injector, [FaultAction(10.0, "crash", (3,), 50.0)])
    cluster.run(until=400.0)
    # Under sustained 15% loss processors may be caught between accept
    # and commit (unassigned) at any instant — but creation attempts
    # keep firing (Fig. 6's timeout), so nobody is stuck forever:
    assert any(cluster.protocol(p).current_partition is not None
               for p in cluster.pids)
    # A healthy window then lets them converge fully.
    for undo in lossy:
        cluster.injector.at(cluster.sim.now, *undo)
    cluster.run(until=cluster.sim.now + 3 * cluster.config.liveness_bound)
    ids = {cluster.protocol(p).current_partition for p in cluster.pids}
    assert len(ids) == 1 and None not in ids


def test_coordinator_crash_mid_write_fanout_does_not_hang():
    """Regression: a coordinator crash used to kill its write fan-out
    workers, orphaning the join the transaction waited on for ever (the
    simulation would then run unboundedly).  The transaction must
    terminate."""
    cluster = Cluster(processors=3, seed=17)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()

    def writer(txn):
        yield from txn.write("x", 1)
        return "wrote"

    outcome = cluster.submit(1, writer, retries=0)
    (recover,) = apply_schedule(cluster.injector, [  # crash mid-fanout
        FaultAction(0.5, "crash", (1,), inf)])
    cluster.run(until=200.0)
    assert outcome.triggered, "the transaction process must terminate"
    committed, _ = outcome.value
    assert committed is False  # the crashed coordinator cannot commit
    # Recovery restores the copies.
    cluster.injector.at(201.0, *recover)
    cluster.run(until=201.0 + 2 * cluster.config.liveness_bound)
    assert cluster.check_one_copy_serializable()
