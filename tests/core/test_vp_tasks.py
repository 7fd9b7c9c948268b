"""Protocol-task-level tests: creation races, stale messages, timers.

These drive the Figs. 4–8 tasks through engineered message sequences —
concurrent initiators, lost commits, stale probes — and check the
arbitration rules the paper relies on.
"""

import sys
from math import inf

from repro import Cluster, VpId, apply_schedule
from repro.core.protocol import VirtualPartitionProtocol
from repro.node import Processor
from repro.net.nemesis import FaultAction
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment


def build(n=4, seed=0, **kwargs):
    cluster = Cluster(processors=n, seed=seed, **kwargs)
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


def test_concurrent_initiators_highest_id_wins():
    """Fig. 5 line 14: when several processors attempt creation at
    once, only the highest identifier's initiator commits a view."""
    cluster = build()
    cluster.run(until=5.0)
    # Force three processors to attempt creation simultaneously.
    for pid in (1, 2, 3):
        cluster.protocol(pid).create_new_vp()
    cluster.run(until=5.0 + cluster.config.liveness_bound)
    ids = {cluster.protocol(p).current_partition for p in cluster.pids}
    assert len(ids) == 1 and None not in ids
    final = ids.pop()
    # The surviving id was minted by the highest-pid initiator among
    # the simultaneous attempts (ties break on pid in the ≺ order).
    assert final.pid == 3


def test_invitation_with_lower_id_is_refused():
    cluster = build()
    cluster.run(until=5.0)
    state = cluster.protocol(2).state
    before = state.cur_id
    # p2 receives a stale invitation (lower than its max-id).
    cluster.processors[1].send(2, "newvp", {"id": VpId(0, 1)})
    cluster.run(until=10.0)
    assert cluster.protocol(2).state.cur_id == before
    assert cluster.protocol(2).assigned


def test_commit_for_stale_id_is_ignored():
    cluster = build()
    cluster.run(until=5.0)
    state = cluster.protocol(2).state
    before_view = set(state.lview)
    cluster.processors[1].send(2, "commit", {
        "id": VpId(0, 1), "view": [1, 2], "previous_map": {},
    })
    cluster.run(until=10.0)
    assert set(cluster.protocol(2).state.lview) == before_view


def test_acceptance_departs_current_partition():
    """Fig. 6 line 7: accepting an invitation means departing — the
    processor is unassigned until the commit arrives (S3's ordering)."""
    cluster = build()
    cluster.run(until=5.0)
    huge = VpId(99, 1)
    # Deliver an invitation from p1 without any initiator running: p2
    # accepts, departs, and sets its 3δ timer.
    cluster.processors[1].send(2, "newvp", {"id": huge})
    cluster.run(until=6.5)  # invitation delivered at ~6.0
    assert not cluster.protocol(2).assigned
    assert cluster.protocol(2).state.max_id == huge
    # No commit ever comes; the timer fires and p2 re-creates with an
    # even higher id, dragging everyone into a fresh partition.
    cluster.run(until=6.5 + 3 * cluster.config.liveness_bound)
    assert cluster.protocol(2).assigned
    assert cluster.protocol(2).state.cur_id > huge


def test_probe_with_stale_id_is_skipped():
    """Fig. 8: v ≺ cur-id → skip (an old delayed message)."""
    cluster = build()
    cluster.run(until=5.0)
    created_before = cluster.metrics.vp_created
    cluster.processors[1].send(2, "probe",
                               {"from": 1, "v": VpId(0, 1), "m": 99})
    cluster.run(until=10.0)
    assert cluster.metrics.vp_created == created_before
    assert cluster.protocol(2).assigned


def test_probe_with_higher_id_triggers_merge():
    """Fig. 8: cur-id ≺ v proves cross-partition communication."""
    cluster = build()
    cluster.run(until=5.0)
    old = cluster.protocol(2).state.cur_id
    cluster.processors[1].send(2, "probe",
                               {"from": 1, "v": VpId(50, 1), "m": 0})
    cluster.run(until=5.0 + cluster.config.liveness_bound)
    new = cluster.protocol(2).state.cur_id
    assert new > VpId(50, 1), "merge must out-number the probed partition"


def test_ack_with_wrong_sequence_is_ignored():
    """Fig. 7 line 16: only acks for the CURRENT probe round count —
    a stale ack must not mask a dead processor."""
    cluster = build()
    cluster.run(until=5.0)
    # Craft a stale ack from p4 to p1 with an old sequence number, then
    # crash p4; p1's next round must still detect the silence.
    apply_schedule(cluster.injector, [FaultAction(6.0, "crash", (4,), inf)])
    cluster.processors[4].send(1, "probe-ack", {"from": 4, "m": 999_999})
    cluster.run(until=6.0 + cluster.config.liveness_bound)
    assert 4 not in cluster.protocol(1).view


def test_unassigned_processor_does_not_answer_probes():
    """Fig. 8's outer guard: only assigned processors acknowledge."""
    cluster = build()
    cluster.run(until=5.0)
    cluster.protocol(2).state.depart()
    acks_from_p2 = []
    cluster.network.tap = (
        lambda m: acks_from_p2.append(m)
        if m.kind == "probe-ack" and m.src == 2 else None
    )
    cluster.processors[1].send(2, "probe", {
        "from": 1, "v": cluster.protocol(1).state.cur_id, "m": 12345,
    })
    cluster.run(until=9.0)
    assert not any(m.payload["m"] == 12345 for m in acks_from_p2), (
        "an unassigned processor answered a probe"
    )
    cluster.network.tap = None
    # The system self-heals: p2's silence drags everyone (p2 included)
    # into a fresh partition.
    cluster.run(until=5.0 + 2 * cluster.config.liveness_bound)
    assert cluster.protocol(1).assigned and cluster.protocol(2).assigned


def test_view_history_records_every_joined_partition():
    cluster = build()
    apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2), (3, 4)), 55.0)])
    cluster.run(until=120.0)
    state = cluster.protocol(1).state
    assert cluster.history.view_of(state.cur_id) == frozenset(state.lview)
    joined = [join.vpid for join in cluster.history.joins if join.pid == 1]
    assert len(joined) >= 3  # boot, split, merge
    assert joined[-1] == state.cur_id


# -- Fig. 6 as three callbacks on one state -----------------------------------
# ``newvp`` and ``commit`` are handled at their delivery events and the
# 3δ wait is one cancellable timeout; these drive all three through
# real deliveries (δ = 1, so a message sent at t lands at t + 1).

HUGE = VpId(99, 1)


def fig6(cluster, etype):
    """p2's trace events of ``etype`` as ``(time, vpid)`` pairs."""
    return [(event.time, event.fields["vpid"])
            for event in cluster.tracer.by_type(etype) if event.pid == 2]


def test_invitation_with_equal_id_is_ignored():
    cluster = build(trace=True)
    cluster.run(until=5.0)
    protocol = cluster.protocol(2)
    cluster.processors[1].send(2, "newvp", {"id": protocol.state.max_id})
    cluster.run(until=7.0)
    assert protocol.assigned
    assert fig6(cluster, "vp.accept") == []
    assert protocol._commit_wait is None


def test_accept_rearms_the_commit_wait():
    cluster = build(trace=True)
    cluster.run(until=5.0)
    wait = cluster.config.commit_wait
    cluster.processors[1].send(2, "newvp", {"id": HUGE})  # lands at 6
    cluster.run(until=7.0)
    higher = VpId(100, 1)
    cluster.processors[1].send(2, "newvp", {"id": higher})  # lands at 8
    cluster.run(until=8.0 + wait - 0.5)  # past the first arming's expiry
    assert fig6(cluster, "vp.accept") == [(6.0, HUGE), (8.0, higher)]
    assert fig6(cluster, "vp.commit-timeout") == []
    assert cluster.protocol(2).state.max_id == higher
    cluster.run(until=8.0 + wait + 0.5)
    assert fig6(cluster, "vp.commit-timeout") == [(8.0 + wait, higher)]


def test_commit_excluding_us_leaves_the_wait_armed():
    cluster = build(trace=True)
    cluster.run(until=5.0)
    protocol = cluster.protocol(2)
    cluster.processors[1].send(2, "newvp", {"id": HUGE})
    cluster.run(until=6.5)
    armed = protocol._commit_wait
    cluster.processors[1].send(2, "commit", {
        "id": HUGE, "view": [1, 3], "previous_map": {},
    })
    cluster.run(until=8.0)
    assert fig6(cluster, "vp.commit-excluded") == [(7.5, HUGE)]
    assert not protocol.assigned
    assert protocol._commit_wait is armed
    # Lines 22-24 still run: the expiry mints the successor and
    # schedules Create-VP, whose invitation leaves at the same instant.
    expiry = 6.0 + cluster.config.commit_wait
    cluster.run(until=expiry + 0.5)
    assert fig6(cluster, "vp.commit-timeout") == [(expiry, HUGE)]
    assert fig6(cluster, "vp.invite") == [(expiry, HUGE.successor(2))]
    assert protocol._commit_wait is None


def test_commit_we_are_in_disarms_the_wait():
    cluster = build(trace=True)
    cluster.run(until=5.0)
    protocol = cluster.protocol(2)
    cluster.processors[1].send(2, "newvp", {"id": HUGE})
    cluster.run(until=6.5)
    cluster.processors[1].send(2, "commit", {
        "id": HUGE, "view": [1, 2], "previous_map": {},
    })
    cluster.run(until=8.0)
    assert protocol.current_partition == HUGE
    assert protocol._commit_wait is None
    cluster.run(until=6.0 + cluster.config.commit_wait + 0.5)
    assert fig6(cluster, "vp.commit-timeout") == []


def test_crash_while_armed_fires_nothing_after_recovery():
    cluster = build(trace=True)
    apply_schedule(cluster.injector, [FaultAction(7.0, "crash", (2,), 1.0)])
    cluster.run(until=5.0)
    protocol = cluster.protocol(2)
    cluster.processors[1].send(2, "newvp", {"id": HUGE})
    cluster.run(until=6.5)
    assert protocol._commit_wait is not None
    cluster.run(until=7.5)
    assert protocol._commit_wait is None
    cluster.run(until=6.0 + cluster.config.commit_wait + 3.0)
    assert fig6(cluster, "vp.commit-timeout") == []
    # the durable max-id survived: p2 rebooted above the accepted id
    assert protocol.state.max_id > HUGE


def quarter_fault_churn():
    """The ledger's ``fault-churn`` spec at a quarter of its duration,
    seed 2: two cycles of a partition, then a crash of p2."""
    actions = []
    for start in (20.0, 140.0):
        actions.append(FaultAction(time=start, kind="partition",
                                   args=((1, 2, 3), (4, 5)), hold=40.0))
        actions.append(FaultAction(time=start + 60.0, kind="crash",
                                   args=(2,), hold=25.0))
    return ExperimentSpec(
        processors=5, clients=2, seed=2, duration=330.0, grace=80.0,
        retries=0, objects=40, audit=True, open_loop=True,
        workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=2,
                              mean_interarrival=4.0),
        failures=ScheduledNemesis(tuple(actions)))


def test_refusal_does_not_beat_a_same_instant_invitation(monkeypatch):
    """The tie Fig. 6's handlers decide.  When a generation forms, a
    member's recovery read can be refused ("wrong-partition") at the
    very instant a higher-numbered invitation reaches it.  Handled at
    delivery, the invitation departs the member first and the refusal
    is no longer actionable; were the invitation still queued behind
    the reply, every member of the generation would mint a competing
    partition from Fig. 9's no-response branch, which runs in the
    recovery reads' continuation, ``_install_freshest``.

    The counts are those of the mailbox-loop implementation.
    """
    minted_by = []
    create_new_vp = VirtualPartitionProtocol.create_new_vp

    def counted(self):
        if self.state.assigned:
            minted_by.append(sys._getframe(1).f_code.co_name)
        create_new_vp(self)

    monkeypatch.setattr(VirtualPartitionProtocol, "create_new_vp", counted)
    result = run_experiment(quarter_fault_churn())
    assert result.registry.snapshot()["gauges"]["protocol.vp_created"] == 29
    assert minted_by.count("_install_freshest") == 8
    assert not result.audit_violations


def test_recovery_spawns_only_the_reads_that_wait(monkeypatch):
    """Fig. 9's updates are callback chains, never processes, and a
    recovery read is answered at its delivery: only an object that must
    wait — for the server's own join, or at the stable-read gate — is
    spawned, and it parks (294 of the 6 612 objects served here, named
    in 338 requests: one per requester, read round and source)."""
    spawned = []
    served = []
    spawn = Processor.spawn
    handle_vpread = VirtualPartitionProtocol._handle_vpread

    def recorded_spawn(self, name, generator):
        process = spawn(self, name, generator)
        spawned.append((name, process is not None and process.is_alive))
        return process

    def recorded_vpread(self, message):
        served.append(message)
        handle_vpread(self, message)

    monkeypatch.setattr(Processor, "spawn", recorded_spawn)
    monkeypatch.setattr(VirtualPartitionProtocol, "_handle_vpread",
                        recorded_vpread)
    result = run_experiment(quarter_fault_churn())
    assert result.registry.snapshot()["gauges"]["protocol.vp_created"] == 29
    assert not [name for name, _ in spawned if name.startswith("update(")]
    vpreads = [parked for name, parked in spawned if name == "vpread"]
    assert all(vpreads)
    assert (len(served), sum(len(m.payload["objs"]) for m in served),
            len(vpreads)) == (338, 6612, 294)
