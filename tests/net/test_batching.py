"""Unit tests for per-destination transport batching."""

import random

import pytest

from repro.net import CommGraph, FixedLatency, Message, Network
from repro.node.processor import Processor
from repro.sim import Simulator


class CountingLatency(FixedLatency):
    """FixedLatency that counts delay() draws (one per envelope)."""

    def __init__(self, delay):
        super().__init__(delay)
        self.draws = 0

    def delay(self, src, dst, rng):
        self.draws += 1
        return super().delay(src, dst, rng)


def build(window, latency=None, n=3, **kwargs):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, latency or FixedLatency(1.0),
                  random.Random(1), batch_window=window, **kwargs)
    arrivals = {p: [] for p in graph.nodes}
    for p in graph.nodes:
        net.register(
            p, lambda m, box=arrivals[p]: box.append((m.kind, sim.now)))
    return sim, graph, net, arrivals


def test_same_destination_messages_share_one_envelope():
    latency = CountingLatency(1.0)
    sim, _, net, arrivals = build(window=0.5, latency=latency)
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=2, kind="b"))
    sim.run()
    # both delivered, in order, at open + max(delay, window) = 1.0
    assert arrivals[2] == [("a", 1.0), ("b", 1.0)]
    assert net.stats.sent == 2
    assert net.stats.envelopes == 1
    assert net.stats.enveloped_messages == 2
    assert net.stats.batch_occupancy == 2.0
    assert latency.draws == 1


def test_different_destinations_do_not_coalesce():
    sim, _, net, _ = build(window=0.5)
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=3, kind="b"))
    net.send(Message(src=2, dst=3, kind="c"))  # other src, same dst
    sim.run()
    assert net.stats.envelopes == 3
    assert net.stats.delivered == 3


def test_zero_window_keeps_envelopes_equal_to_sent():
    sim, _, net, arrivals = build(window=0.0)
    for _ in range(5):
        net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert net.stats.envelopes == net.stats.sent == 5
    assert net.stats.batch_occupancy == 1.0
    assert all(t == 1.0 for _, t in arrivals[2])


def test_opener_unchanged_and_followers_arrive_no_later():
    sim, _, net, arrivals = build(window=0.5)
    net.send(Message(src=1, dst=2, kind="opener"))
    sim.timeout(0.4).add_callback(
        lambda e: net.send(Message(src=1, dst=2, kind="follower")))
    sim.run()
    # the opener arrives exactly when it would have alone; the follower
    # (alone: 1.4) rides the envelope and arrives at 1.0 — still within
    # the delta bound, so protocol timers remain sound
    assert dict(arrivals[2]) == {"opener": 1.0, "follower": 1.0}
    assert net.stats.envelopes == 1


def test_window_above_delay_dominates_arrival():
    sim, _, net, arrivals = build(window=2.0)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert arrivals[2] == [("ping", 2.0)]  # open + max(delay, window)


def test_send_after_flush_opens_a_new_envelope():
    sim, _, net, arrivals = build(window=0.5)
    net.send(Message(src=1, dst=2, kind="first"))
    sim.timeout(0.6).add_callback(
        lambda e: net.send(Message(src=1, dst=2, kind="second")))
    sim.run()
    assert net.stats.envelopes == 2
    assert dict(arrivals[2]) == {"first": 1.0, "second": 1.6}


def test_loss_draw_is_per_envelope_not_per_message():
    sim, _, net, arrivals = build(window=0.5, loss_prob=0.999)
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=2, kind="b"))
    sim.run()
    # the whole envelope is lost on one draw: both riders drop together
    assert arrivals[2] == []
    assert net.stats.dropped_lost == 2
    assert net.stats.envelopes == 1


def test_msg_id_streams_are_per_network():
    _, _, net_a, _ = build(window=0.0)
    _, _, net_b, _ = build(window=0.0)
    assert [net_a.next_msg_id() for _ in range(3)] == [1, 2, 3]
    # a second network starts its own stream — ids never leak across
    # clusters built back-to-back in one process
    assert net_b.next_msg_id() == 1


# -- envelope delivery: every carried message takes the one handler path ------


class RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, etype, **fields):
        self.events.append((etype, fields))


def test_destination_without_handler_drops_the_whole_envelope():
    sim = Simulator()
    graph = CommGraph(range(1, 3))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1),
                  batch_window=0.5)
    # node 2 is in the graph but no processor ever attached to it
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=2, kind="b"))
    sim.run()
    assert net.stats.envelopes == 1
    assert net.stats.dropped_dst_down == 2
    assert net.stats.delivered == 0


@pytest.mark.parametrize("sever", [
    lambda graph: graph.cut_link(1, 2),
    # a crashed endpoint has no edges, so this too is an in-flight death
    lambda graph: graph.crash_node(2),
], ids=["link-cut", "destination-crashed"])
def test_envelope_severed_in_flight_is_dropped_whole(sever):
    sim, graph, net, arrivals = build(window=0.5)
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=2, kind="b"))
    # after the 0.5 flush, before the 1.0 arrival
    sim.timeout(0.75).add_callback(lambda _e: sever(graph))
    sim.run()
    assert arrivals[2] == []
    assert net.stats.dropped == net.stats.dropped_in_flight == 2
    assert net.stats.delivered == 0


def test_duplicate_replies_riding_one_envelope_wake_the_waiter_once():
    sim, _, net, _ = build(window=0.5, n=2)
    # attaching a processor replaces build()'s recording handler
    p1, p2 = Processor(1, sim, net), Processor(2, sim, net)
    replies = []

    def server(request):
        p2.reply(request, "pong", {"n": 1})
        p2.reply(request, "pong", {"n": 2})  # duplicate, same window

    def client():
        response = yield from p1.rpc(2, "ping", {}, timeout=10.0)
        replies.append(response.payload["n"])

    p2.serve("ping", server)
    sim.process(client(), name="client")
    sim.run()
    # both pongs rode one envelope; the first woke the RPC waiter, the
    # second found nobody waiting — counted late, handed to no handler
    assert net.stats.envelopes == 2 and net.stats.delivered == 3
    assert replies == [1]
    assert p1.transport.late_replies == 1


def test_recv_traces_follow_carry_order():
    sim, _, net, _ = build(window=0.5)
    net.tracer = tracer = RecordingTracer()
    for kind in ("a", "b", "c"):
        net.send(Message(src=1, dst=2, kind=kind))
    sim.run()
    recvs = [f for e, f in tracer.events if e == "msg.recv"]
    # one msg.recv per carried message, in carry order, matching sends
    assert [f["kind"] for f in recvs] == ["a", "b", "c"]
    sends = [f["seq"] for e, f in tracer.events if e == "msg.send"]
    assert [f["seq"] for f in recvs] == sends
