"""Unit tests for the message transport."""

import random

import pytest

from repro.net import CommGraph, FixedLatency, Message, Network
from repro.node import Processor
from repro.sim import Simulator
from tests.sim.schedule import is_call, live_entries


def build(n=3, latency=None, **kwargs):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, latency or FixedLatency(1.0),
                  random.Random(1), **kwargs)
    inboxes = {p: [] for p in graph.nodes}
    for p in graph.nodes:
        net.register(p, lambda m, box=inboxes[p]: box.append(m))
    return sim, graph, net, inboxes


def test_message_delivered_after_latency():
    sim, _, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert sim.now == 1.0
    assert [m.kind for m in inboxes[2]] == ["ping"]
    assert net.stats.sent == net.stats.delivered == 1


def test_send_on_cut_link_is_dropped():
    sim, graph, net, inboxes = build()
    graph.cut_link(1, 2)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert inboxes[2] == []
    assert net.stats.dropped_no_edge == 1


def test_link_cut_mid_flight_drops_message():
    sim, graph, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.timeout(0.5).add_callback(lambda e: graph.cut_link(1, 2))
    sim.run()
    assert inboxes[2] == []
    assert net.stats.dropped_in_flight == 1


def test_destination_crash_mid_flight_drops_message():
    sim, graph, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.timeout(0.5).add_callback(lambda e: graph.crash_node(2))
    sim.run()
    assert inboxes[2] == []
    # a crashed endpoint has no edges, so this too is an in-flight death
    assert net.stats.dropped == net.stats.dropped_in_flight == 1


def test_loss_probability_drops_some():
    sim, _, net, inboxes = build(loss_prob=0.5)
    for _ in range(100):
        net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert 0 < len(inboxes[2]) < 100
    assert net.stats.dropped_lost == 100 - len(inboxes[2])


def test_slow_messages_exceed_bound_but_arrive():
    sim, _, net, inboxes = build(slow_prob=0.99, slow_factor=5.0)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert len(inboxes[2]) == 1
    assert sim.now == pytest.approx(5.0)
    assert net.stats.slow == 1


def test_duplicates_counted_and_delivered():
    sim, _, net, inboxes = build(dup_prob=0.99)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert len(inboxes[2]) == 2
    assert net.stats.duplicated == 1


def test_by_kind_counters():
    sim, _, net, _ = build()
    net.send(Message(src=1, dst=2, kind="probe"))
    net.send(Message(src=1, dst=3, kind="probe"))
    net.send(Message(src=2, dst=3, kind="read"))
    sim.run()
    assert net.stats.by_kind == {"probe": 2, "read": 1}


def test_reply_envelope_links_request():
    """``Processor.reply`` is the one reply path: the response names its
    request, and both ids are drawn from that network's own stream."""
    sim, _, net, _ = build()
    procs = {p: Processor(p, sim, net) for p in (1, 2)}
    tapped = []
    net.tap = tapped.append
    net.next_msg_id()  # the stream has moved on: ids are not fixed
    procs[2].serve("read", lambda request: procs[2].reply(
        request, "read-reply", {"value": 7}))
    procs[1].send(2, "read", {"obj": "x"})
    sim.run()
    request, response = tapped
    assert (response.src, response.dst, response.kind) == (2, 1, "read-reply")
    assert response.reply_to == request.msg_id
    assert (request.msg_id, response.msg_id) == (2, 3)
    assert response.payload["value"] == 7 and response.sent_at == 1.0


def test_unknown_destination_rejected():
    sim, _, net, _ = build()
    with pytest.raises(KeyError):
        net.send(Message(src=1, dst=42, kind="ping"))


def test_parameter_validation():
    sim = Simulator()
    graph = CommGraph([1, 2])
    rng = random.Random(1)
    with pytest.raises(ValueError):
        Network(sim, graph, FixedLatency(1.0), rng, loss_prob=1.5)
    with pytest.raises(ValueError):
        Network(sim, graph, FixedLatency(1.0), rng, slow_factor=0.5)


def test_wiretap_sees_all_sends():
    sim, graph, net, _ = build()
    graph.cut_link(1, 2)
    tapped = []
    net.tap = tapped.append
    net.send(Message(src=1, dst=2, kind="lost"))
    net.send(Message(src=1, dst=3, kind="kept"))
    sim.run()
    assert [m.kind for m in tapped] == ["lost", "kept"]


def test_msg_id_streams_are_per_network():
    _, _, net_a, _ = build()
    _, _, net_b, _ = build()
    assert [net_a.next_msg_id() for _ in range(3)] == [1, 2, 3]
    # a second network starts its own stream — ids never leak across
    # clusters built back-to-back in one process
    assert net_b.next_msg_id() == 1


def test_live_destination_without_handler_is_counted_dst_down():
    sim = Simulator()
    graph = CommGraph(range(1, 3))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    # node 2 is in the graph but no processor ever attached to it
    net.send(Message(src=1, dst=2, kind="a"))
    sim.run()
    assert net.stats.dropped_dst_down == 1
    assert net.stats.delivered == 0


def test_snapshot_envelopes_is_one_per_transmission():
    sim, graph, net, _ = build(dup_prob=0.99)
    graph.cut_link(1, 3)
    for dst in (2, 2, 3):
        net.send(Message(src=1, dst=dst, kind="ping"))
    sim.run()
    # one per send (counted before any drop), one more per duplicate
    assert net.stats.sent == 3 and net.stats.duplicated == 2
    assert net.stats.snapshot()["envelopes"] == 5
    assert type(net.stats.snapshot()["by_kind"]) is dict


# -- the in-flight check: a version stamp, re-queried only if it moved --------


class ScriptedLatency(FixedLatency):
    """Hands out ``delays`` in draw order (all within the bound)."""

    def __init__(self, *delays):
        super().__init__(max(delays))
        self.delays = list(delays)

    def delay(self, src, dst, rng):
        return self.delays.pop(0)


def at(sim, when, action):
    sim.timeout(when).add_callback(lambda _event: action())


def test_link_cut_and_healed_mid_flight_still_delivers():
    sim, graph, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    at(sim, 0.25, lambda: graph.cut_link(1, 2))
    at(sim, 0.75, lambda: graph.heal_link(1, 2))
    sim.run()
    # the version moved, so the edge is asked about again — and is there
    assert [m.kind for m in inboxes[2]] == ["ping"]
    assert net.stats.dropped == 0


def test_unrelated_link_flapping_mid_flight_changes_nothing():
    sim, graph, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    at(sim, 0.25, lambda: graph.cut_link(2, 3))
    at(sim, 0.5, lambda: graph.heal_link(2, 3))
    at(sim, 0.75, lambda: graph.cut_link(1, 3))
    sim.run()
    assert [m.kind for m in inboxes[2]] == ["ping"]
    assert net.stats.dropped == 0


def test_reverse_direction_cut_mid_flight_still_delivers():
    sim, graph, net, inboxes = build()
    net.send(Message(src=1, dst=2, kind="ping"))
    at(sim, 0.5, lambda: graph.cut_link_oneway(2, 1))
    sim.run()
    assert [m.kind for m in inboxes[2]] == ["ping"]
    assert net.stats.dropped == 0


def test_each_copy_of_a_duplicate_is_checked_at_its_own_arrival():
    sim, graph, net, inboxes = build(latency=ScriptedLatency(1.0, 2.0),
                                     dup_prob=0.99)
    net.send(Message(src=1, dst=2, kind="ping"))
    at(sim, 1.5, lambda: graph.cut_link(1, 2))
    sim.run()
    # the original landed at 1.0, before the cut; its copy at 2.0, after
    assert net.stats.duplicated == 1
    assert net.stats.delivered == len(inboxes[2]) == 1
    assert net.stats.dropped_in_flight == 1


def test_delivery_event_carries_no_formatted_name():
    sim, _, net, _ = build(dup_prob=0.99)
    dispatched = []
    sim.trace_hook = lambda _when, target: dispatched.append(target)
    net.send(Message(src=1, dst=2, kind="ping"))
    assert len(live_entries(sim)) == 2
    assert all(is_call(entry) for entry in live_entries(sim))
    sim.run()
    # events.py: "the hot paths never build f-strings" — one bare call
    # entry per transmission, no event behind it, nothing else
    # scheduled; a kernel trace names it ""
    assert dispatched == [net._deliver, net._deliver]
    assert all(getattr(target, "name", "") == "" for target in dispatched)


# -- trace correlation: ``seq`` rides in the delivery event -------------------


class RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, etype, **fields):
        self.events.append((etype, fields))

    def of(self, etype):
        return [fields for e, fields in self.events if e == etype]


def test_recv_traces_carry_their_sends_seq_in_send_order():
    sim, _, net, _ = build()
    net.tracer = tracer = RecordingTracer()
    for kind in ("a", "b", "c"):
        net.send(Message(src=1, dst=2, kind=kind))
    sim.run()
    recvs = tracer.of("msg.recv")
    assert [f["kind"] for f in recvs] == ["a", "b", "c"]
    sends = [f["seq"] for f in tracer.of("msg.send")]
    assert sends == [1, 2, 3]
    assert [f["seq"] for f in recvs] == sends


def test_drop_traces_carry_their_sends_seq():
    sim, graph, net, _ = build()
    net.tracer = tracer = RecordingTracer()
    graph.cut_link(1, 3)
    net.set_grey_loss(2, 3, 0.999)
    net.send(Message(src=1, dst=2, kind="in-flight"))
    net.send(Message(src=1, dst=3, kind="no-edge"))
    net.send(Message(src=2, dst=3, kind="lost"))
    net.send(Message(src=3, dst=2, kind="kept"))
    at(sim, 0.5, lambda: graph.cut_link(1, 2))
    sim.run()
    seq_of = {f["kind"]: f["seq"] for f in tracer.of("msg.send")}
    drops = tracer.of("msg.drop")
    assert {f["reason"] for f in drops} == {"in-flight", "no-edge", "lost"}
    assert all(f["kind"] == f["reason"] and f["seq"] == seq_of[f["kind"]]
               for f in drops)
    assert [f["seq"] for f in tracer.of("msg.recv")] == [seq_of["kept"]]


def test_both_copies_of_a_duplicate_carry_one_seq():
    sim, _, net, _ = build(dup_prob=0.99)
    net.tracer = tracer = RecordingTracer()
    net.send(Message(src=1, dst=2, kind="first"))
    net.send(Message(src=1, dst=2, kind="second"))
    sim.run()
    recvs = tracer.of("msg.recv")
    assert len(recvs) == 4
    assert ({(f["kind"], f["seq"]) for f in recvs}
            == {("first", 1), ("second", 2)})
