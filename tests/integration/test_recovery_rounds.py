"""Fig. 9's reads go out as one round: one ``vpread`` per source.

After a join, Update-Copies-in-View reads every locked object at once.
Each source gets ONE request naming every object it must answer, and
answers in one reply every object it can answer at the delivery; an
object that must wait at the source (its join, or the stable-read gate)
is answered in a reply of its own when that wait ends.  The requester
decides each object the moment all of *its* sources have answered, or
at the round's deadline.  These cases pin that timing (latency 1, so a
round trip is 2 ticks), what a silent source and a requester crash do
to a round, and the message count on a quarter-length ``fault-churn``.
"""

import sys
from collections import Counter
from math import inf

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule
from repro.core.copy_update import ReadRound
from repro.core.protocol import VirtualPartitionProtocol
from repro.net.network import Network
from repro.node import Processor
from repro.workload.runner import run_experiment

from ..core.test_vp_tasks import quarter_fault_churn

TXN = (1, 1)  # the first transaction minted at processor 1


def record_decisions(monkeypatch):
    """Every object a round decides, as ``(time, pid, obj, partition
    the update started in, {source: "ok", a refusal or None})``, and
    every partition minted from such a decision, as ``(pid, obj,
    partition)``."""
    decided, minted = [], []
    install_freshest = VirtualPartitionProtocol._install_freshest
    create_new_vp = VirtualPartitionProtocol.create_new_vp

    def spied_install(self, obj, old_id, sources, local_date, results):
        decided.append((self.sim.now, self.pid, obj, old_id, {
            source: reply and ("ok" if reply["ok"] else reply["reason"])
            for source, reply in results.items()}))
        install_freshest(self, obj, old_id, sources, local_date, results)

    def spied_create(self):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_install_freshest":
            minted.append((self.pid, caller.f_locals["obj"],
                           caller.f_locals["old_id"]))
        create_new_vp(self)

    monkeypatch.setattr(VirtualPartitionProtocol, "_install_freshest",
                        spied_install)
    monkeypatch.setattr(VirtualPartitionProtocol, "create_new_vp",
                        spied_create)
    return decided, minted


def gated_neighbour(crash=None):
    """x and y on p1-p3.  p1 coordinates a write of y in {1, 2}, decides
    it durably and crashes before the decide leaves, so p2 stays in
    doubt holding y's write lock.  p3 then rejoins p2: its round reads
    x and y from p2 in one request.  With ``crash``, p3 crashes that
    many ticks into the round and recovers a tick later."""
    cluster = Cluster(processors=3, seed=1, trace=True,
                      config=ProtocolConfig(delta=1.0, storage_sync_cost=1.0))
    for obj in ("x", "y"):
        cluster.place(obj, holders=[1, 2, 3], initial=0)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [
        FaultAction(1.0, "partition", ((1, 2), (3,)), inf)])
    cluster.run(until=30.0)
    cluster.write_once(1, "y", 42)
    while cluster.processor(1).store.decision_of(TXN) != "commit":
        cluster.sim.run(until=cluster.sim.now + 0.25)
    now = cluster.sim.now
    apply_schedule(cluster.injector, [FaultAction(now + 0.5, "crash", (1,), inf)])
    # the partition ends at an instant learned only now
    cluster.injector.at(now + 1.0, *heal)
    sent = []
    cluster.network.tap = sent.append
    state = cluster.protocol(3).state
    while not (state.assigned and state.lview == {2, 3}):
        cluster.sim.run(until=cluster.sim.now + 0.25)
    start = cluster.sim.now
    if crash is not None:
        apply_schedule(cluster.injector, [
            FaultAction(start + crash, "crash", (3,), 1.0)])
    return cluster, sent, state.cur_id


def test_a_free_object_installs_before_its_gated_neighbour(monkeypatch):
    """x is answered in p2's one reply and installs a round trip after
    the join; y waits at p2's stable-read gate behind the in-doubt
    write, and is decided when that gate decides (its lock timeout):
    a refusal, so p3 mints a partition then and not before."""
    decided, minted = record_decisions(monkeypatch)
    cluster, sent, vpid = gated_neighbour()
    assert TXN in cluster.protocol(2).commit.in_doubt
    cluster.run(until=cluster.sim.now + 40.0)
    (joined,) = [e.time for e in cluster.tracer.by_type("recover.start")
                 if e.pid == 3 and e.fields["vpid"] == vpid]
    (request,) = [m for m in sent if m.kind == "vpread" and m.src == 3
                  and m.payload["v"] == vpid]
    assert request.dst == 2 and list(request.payload["objs"]) == ["x", "y"]
    replies = [m for m in sent if m.reply_to == request.msg_id]
    assert [list(m.payload) for m in replies] == [["x"], ["y"]]
    gate_timeout = cluster.config.lock_timeout
    assert [(t, obj, reasons) for t, pid, obj, old_id, reasons in decided
            if pid == 3 and old_id == vpid] == [
        (joined + 2.0, "x", {2: "ok"}),
        (joined + 1.0 + gate_timeout + 1.0, "y", {2: "write-locked"}),
    ]
    assert [(pid, obj) for pid, obj, old_id in minted
            if old_id == vpid] == [(3, "y")]


def test_a_silent_source_costs_only_its_objects_their_deadline(monkeypatch):
    """p3 rejoins {1, 2}: x has sources p1 and p2, z only p2.  The link
    to p1 is cut as the round's requests leave, so p1 is silent: z still
    installs a round trip after the join, x is decided with p1 silent at
    the round's ``access_timeout`` deadline."""
    decided, _ = record_decisions(monkeypatch)
    cluster = Cluster(processors=3, seed=1,
                      config=ProtocolConfig(delta=1.0))
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.place("z", holders=[2, 3], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [
        FaultAction(1.0, "partition", ((1, 2), (3,)), 29.0)])
    rounds = []

    def tap(message):
        if (message.kind == "vpread" and message.src == 3 and not rounds
                and message.dst == 1):
            rounds.append((cluster.sim.now, message.payload["v"]))
            cluster.graph.cut_link(1, 3)

    cluster.network.tap = tap
    cluster.run(until=100.0)
    ((start, vpid),) = rounds
    deadline = start + cluster.config.access_timeout
    assert [(t, obj, reasons) for t, pid, obj, old_id, reasons in decided
            if pid == 3 and old_id == vpid] == [
        (start + 2.0, "z", {2: "ok"}),
        (deadline, "x", {2: "ok", 1: None}),
    ]


def test_a_requester_crash_voids_its_round(monkeypatch):
    """p3 crashes after x installed, while y waits at p2's gate: the
    round decides nothing more — y's late answer and the deadline do
    nothing, no partition is minted from it."""
    decided, minted = record_decisions(monkeypatch)
    cluster, _, vpid = gated_neighbour(crash=5.0)
    cluster.run(until=cluster.sim.now + 40.0)
    assert [obj for _, pid, obj, old_id, _ in decided
            if pid == 3 and old_id == vpid] == ["x"]
    assert [m for m in minted if m[2] == vpid] == []
    assert cluster.processor(3).transport.late_replies >= 1
    assert cluster.protocol(3).state.cur_id > vpid


def test_quarter_fault_churn_sends_one_request_per_source_per_round(
        monkeypatch):
    """On the quarter-length ``fault-churn``: the 29 partitions and
    1 863 object recoveries of one request per object read, with one
    ``vpread`` per (requester, round, source) — 338 for 6 612 object
    reads — and one reply per request that had an answer ready at its
    delivery (301) plus one per answer that had to wait there: 280 of
    the 294 waits, the other 14 killed by a crash of their server."""
    legs, sent, waited = [], Counter(), []
    init = ReadRound.__init__
    send = Network.send
    spawn = Processor.spawn

    def counted_init(self, protocol, old_id, reads):
        legs.append(len({source for _, sources, _ in reads
                         for source in sources}))
        init(self, protocol, old_id, reads)

    def counted_send(self, message):
        if message.kind == "vpread-reply":  # sent by whom: Processor.reply's caller
            sent[sys._getframe(2).f_code.co_name] += 1
        else:
            sent[message.kind] += 1
        send(self, message)

    def counted_spawn(self, name, generator):
        process = spawn(self, name, generator)
        if name == "vpread":
            waited.append(process)
        return process

    monkeypatch.setattr(ReadRound, "__init__", counted_init)
    monkeypatch.setattr(Network, "send", counted_send)
    monkeypatch.setattr(Processor, "spawn", counted_spawn)
    result = run_experiment(quarter_fault_churn())
    gauges = result.registry.snapshot()["gauges"]
    assert gauges["protocol.vp_created"] == 29
    assert gauges["protocol.recoveries"] == 1863
    assert sent["vpread"] == sum(legs) == 338
    assert (sent["_handle_vpread"], len(waited),
            sent["_vpread_when_ready"]) == (301, 294, 280)
    assert not result.audit_violations
