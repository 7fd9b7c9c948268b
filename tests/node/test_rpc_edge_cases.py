"""Edge-case tests: one-target calls and handlers across crashes."""

import random

from repro.net import CommGraph, FixedLatency, Network
from repro.node import Processor
from repro.sim import Simulator
from tests.node.calls import ask


def build(n=3):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def test_rpc_to_crashed_server_times_out():
    sim, graph, _, procs = build()
    graph.crash_node(2)
    procs[2].crash()

    def client():
        if (yield from ask(procs[1], 2, "ask", timeout=4.0)) is None:
            return sim.now

    proc = sim.process(client())
    sim.run()
    assert proc.value == 4.0


def test_server_crash_after_request_before_reply():
    sim, graph, _, procs = build()

    def server(message):
        yield sim.timeout(5.0)  # crash interrupts this wait
        procs[2].reply(message, "ask-reply")

    outcomes = []

    def client():
        payload = yield from ask(procs[1], 2, "ask", timeout=10.0)
        outcomes.append("no-response" if payload is None else "replied")

    procs[2].serve_spawned("ask", server)
    sim.process(client())
    sim.timeout(2.0).add_callback(lambda e: (graph.crash_node(2),
                                             procs[2].crash()))
    sim.run()
    assert outcomes == ["no-response"]


def test_requester_crash_drops_pending_reply():
    sim, graph, _, procs = build()

    def server(message):
        yield sim.timeout(3.0)
        procs[2].reply(message, "ask-reply")

    state = []

    def client():
        payload = yield from ask(procs[1], 2, "ask", timeout=20.0)
        state.append(("timeout", None) if payload is None
                     else ("got", payload))

    procs[2].serve_spawned("ask", server)
    sim.process(client())
    # p1 crashes while the reply is on its way back.
    sim.timeout(2.5).add_callback(lambda e: (graph.crash_node(1),
                                             procs[1].crash()))
    sim.run(until=30.0)
    # The reply was dropped (p1 was down): it reached neither the
    # waiter the crash forgot nor the late-reply path.
    assert state == [("timeout", None)]
    assert procs[1]._reply_waiters == {}
    assert procs[1].transport.late_replies == 0


def test_recovered_processor_serves_again():
    sim, graph, _, procs = build()

    procs[2].serve("echo", lambda message: procs[2].reply(
        message, "echo-reply", {"text": message.payload["text"]}))

    graph.crash_node(2)
    procs[2].crash()
    sim.run(until=5.0)
    graph.recover_node(2)
    procs[2].recover()

    def client():
        payload = yield from ask(procs[1], 2, "echo", {"text": "back"},
                                 timeout=5.0)
        return payload["text"]

    proc = sim.process(client())
    sim.run()
    assert proc.value == "back"


def test_messages_queued_while_down_are_not_delivered_after_recovery():
    sim, graph, _, procs = build()
    got = []
    procs[2].serve("note", got.append)
    graph.crash_node(2)
    procs[2].crash()
    procs[1].send(2, "note", {"n": 1})
    sim.run(until=5.0)
    graph.recover_node(2)
    procs[2].recover()
    sim.run(until=10.0)
    assert got == [], (
        "messages sent while a processor is down are lost, not queued"
    )


def test_two_rpcs_in_flight_matched_correctly():
    sim, _, _, procs = build()

    procs[2].serve("ask", lambda message: procs[2].reply(
        message, "ask-reply", {"echo": message.payload["n"]}))

    def client(n, delay):
        yield sim.timeout(delay)
        payload = yield from ask(procs[1], 2, "ask", {"n": n}, timeout=10.0)
        return payload["echo"]

    first = sim.process(client(1, 0.0))
    second = sim.process(client(2, 0.1))
    sim.run()
    assert first.value == 1
    assert second.value == 2
