"""A crash inside Update-Copies-in-View kills that recovery for good.

Fig. 9 runs one update per locked object, and each can be cut short at
three points: while its recovery read round (``vpread``) is in flight,
while it parks on an in-doubt write of its own copy, and while it waits
to re-read a source that answered "in-doubt".  In each case below the
recovering processor crashes at that point and recovers a tick later.  The
update it had started must then do nothing more, ever: it installs
nothing, unlocks nothing and mints no partition, and the run dispatches
exactly the pinned number of kernel events and completes exactly the
pinned number of fan-outs.  The pins hold whether a process, a
callback chain on a per-object call or one on a read round
(:class:`~repro.core.copy_update.ReadRound`) carries the update.  The
in-doubt cases count their resolvers' ``txn-status`` queries (one-target
calls) among the fan-outs, and a resolver the crash kills mid-query
leaves its call's deadline to fire: two dispatches, the deadline and a
wake-up nobody waits on.
"""

import sys
from math import inf

import pytest

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule
from repro.core.protocol import VirtualPartitionProtocol
from repro.core.state import ReplicaState
from repro.node.storage import StorageEngine

TXN = (1, 1)  # the first transaction minted at processor 1


def record_update_effects(monkeypatch):
    """Every install, unlock and partition minted from Fig. 9's code, as
    ``(effect, pid, the partition that update started in)``."""
    effects = []

    def started_in():
        frame = sys._getframe(2)
        while frame is not None:
            if (frame.f_code.co_filename.endswith("copy_update.py")
                    and "old_id" in frame.f_locals):
                return frame.f_locals["old_id"]
            frame = frame.f_back
        return None

    def spy(cls, name, pid_of):
        original = getattr(cls, name)

        def spied(self, *args):
            old_id = started_in()
            if old_id is not None:
                effects.append((name, pid_of(self), old_id))
            return original(self, *args)

        monkeypatch.setattr(cls, name, spied)

    spy(ReplicaState, "unlock_object", lambda state: state.pid)
    spy(StorageEngine, "install", lambda store: store.pid)
    spy(StorageEngine, "apply_log", lambda store: store.pid)
    spy(VirtualPartitionProtocol, "create_new_vp", lambda vp: vp.pid)
    return effects


def crash_then_recover(cluster, pid, at, armed):
    """Crash ``pid`` at ``at`` and recover it one tick later; note the
    partition it stands in now, whose update the crash must kill."""
    armed.append(cluster.protocol(pid).state.cur_id)
    apply_schedule(cluster.injector, [FaultAction(at, "crash", (pid,), 1.0)])


def reads_in_flight(armed):
    """p3 rejoins p1 and p2 after a partition heals; it crashes a
    quarter tick after its recovery read reaches p1."""
    cluster = Cluster(processors=3, seed=1, trace=True,
                      config=ProtocolConfig(delta=1.0))
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2), (3,)), 25.0)])
    processor = cluster.processor(1)
    handler = processor._handlers["vpread"]

    def armed_handler(message):
        handler(message)
        if not armed and message.src == 3:
            crash_then_recover(cluster, 3, cluster.sim.now + 0.25, armed)

    processor._handlers["vpread"] = armed_handler
    return cluster, 3


def decide_window(processors, holders, cut=None):
    """A write of x by p1 whose commit is durably decided but whose
    decide has not left (the decide waits out a 3-tick forced write);
    p1 then crashes for good, so its participants stay in doubt.  With
    ``cut``, the blocks are partitioned from t=1 until the returned
    undo is scheduled."""
    cluster = Cluster(processors=processors, seed=1, trace=True,
                      config=ProtocolConfig(delta=4.0, storage_sync_cost=3.0))
    cluster.place("x", holders=holders, initial=0)
    cluster.start()
    undo = None
    if cut is not None:
        (undo,) = apply_schedule(cluster.injector, [
            FaultAction(1.0, "partition", cut, inf)])
    cluster.run(until=30.0)
    cluster.write_once(1, "x", 42)
    while cluster.processor(1).store.decision_of(TXN) != "commit":
        cluster.sim.run(until=cluster.sim.now + 0.25)
    apply_schedule(cluster.injector, [
        FaultAction(cluster.sim.now + 0.5, "crash", (1,), inf)])
    return cluster, undo


def in_doubt_park(armed):
    """p2 and p3 re-form without p1; p3's own copy carries the in-doubt
    write, so its update parks.  It crashes a tick into the park."""
    cluster, _ = decide_window(3, [1, 2, 3])
    state = cluster.protocol(3).state
    while not (state.assigned and 1 not in state.lview
               and "x" in state.locked):
        cluster.sim.run(until=cluster.sim.now + 0.25)
    assert TXN in cluster.protocol(3).commit.in_doubt
    crash_then_recover(cluster, 3, cluster.sim.now + 1.0, armed)
    return cluster, 3


def in_doubt_reread_wait(armed):
    """p4 was cut off while p2 and p3 prepared the write; they crash and
    recover (their locks go, the in-doubt writes stay), then all three
    re-form without p1.  Both of p4's sources answer "in-doubt", and
    p4 crashes five ticks into its wait to re-read them."""
    cluster, heal = decide_window(4, [2, 3, 4], cut=((1, 2, 3), (4,)))
    now = cluster.sim.now
    apply_schedule(cluster.injector, [
        FaultAction(now + 1.0, "crash", (pid,), 1.0) for pid in (2, 3)])
    cluster.injector.at(now + 3.0, *heal)

    def tap(message):
        if (not armed and message.kind == "vpread-reply"
                and message.dst == 4
                and any(answer["reason"] == "in-doubt"
                        for answer in message.payload.values())):
            # the refusal lands a tick from now; the wait begins there
            crash_then_recover(cluster, 4, cluster.sim.now + 6.0, armed)

    cluster.network.tap = tap
    return cluster, 4


@pytest.mark.parametrize("case, dispatched, fanouts", [
    (reads_in_flight, 588, 7),
    (in_doubt_park, 417, 4),
    (in_doubt_reread_wait, 766, 20),
])
def test_a_crash_inside_recovery_kills_that_update(
        monkeypatch, case, dispatched, fanouts):
    effects = record_update_effects(monkeypatch)
    armed = []
    cluster, pid = case(armed)
    cluster.run(until=300.0)
    assert armed, "the crash point was never reached"
    killed = armed[0]
    assert [label for _, label in cluster.injector.log][-2:] == [
        f"crash({pid})", f"recover({pid})"]
    events = cluster.tracer.events
    # the update was under way, and never finished ...
    assert [e for e in events if e.etype == "recover.start"
            and e.pid == pid and e.fields["vpid"] == killed]
    assert not [e for e in events if e.etype == "recover.object"
                and e.pid == pid and e.fields["vpid"] == killed]
    # ... nor did anything else on its behalf
    assert [e for e in effects if e[1:] == (pid, killed)] == []
    # and the recovered processor went on to recover in a later view
    assert cluster.protocol(pid).state.cur_id > killed
    assert cluster.sim.dispatched == dispatched
    # fan-outs gathered cluster-wide: a dead update's reads record none
    assert len(cluster.processor(pid).transport.fanout_latencies) == fanouts
