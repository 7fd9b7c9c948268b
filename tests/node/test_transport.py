"""Unit tests for the scatter/gather fan-out primitive."""

import random

from repro.net import CommGraph, FixedLatency, Network
from repro.node import Processor
from repro.sim import Simulator


def build(n=4):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def echo_server(proc, kind="echo", delay=0.0):
    def server():
        while True:
            request = yield proc.receive(kind)
            if delay:
                yield proc.sim.timeout(delay)
            proc.reply(request, f"{kind}-reply",
                       {"pid": proc.pid, "n": request.payload["n"]})
    return server


def test_scatter_gather_collects_every_reply():
    sim, _, _, procs = build()
    for p in (2, 3, 4):
        sim.process(echo_server(procs[p])())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server * 10},
            timeout=5.0)
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value == {2: {"pid": 2, "n": 20},
                          3: {"pid": 3, "n": 30},
                          4: {"pid": 4, "n": 40}}
    stats = procs[1].transport
    assert stats.fanouts == 1 and stats.rpcs == 3
    assert stats.no_responses == 0 and stats.early_exits == 0
    assert stats.fanout_latencies == [2.0]  # one round trip at delay 1.0


def test_silence_maps_to_none_and_is_counted():
    sim, graph, _, procs = build()
    graph.cut_link(1, 3)
    for p in (2, 4):
        sim.process(echo_server(procs[p])())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=3.0)
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value[3] is None
    assert proc.value[2] == {"pid": 2, "n": 2}
    assert proc.value[4] == {"pid": 4, "n": 4}
    assert procs[1].transport.no_responses == 1
    # silence bounds the gather at the RPC timeout, not forever
    assert procs[1].transport.fanout_latencies == [3.0]


def test_quorum_early_exit_kills_the_stragglers():
    sim, _, _, procs = build()
    sim.process(echo_server(procs[2])())
    sim.process(echo_server(procs[3])())
    sim.process(echo_server(procs[4], delay=50.0)())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=100.0,
            quorum=lambda partial: len(partial) >= 2)
        return (results, sim.now)

    proc = sim.process(caller())
    sim.run()
    results, finished_at = proc.value
    assert set(results) == {2, 3}
    assert finished_at == 2.0  # did not wait for the straggler
    assert procs[1].transport.early_exits == 1
    assert procs[1].transport.fanout_latencies == [2.0]


def test_two_phase_scatter_overlaps_local_work():
    sim, _, _, procs = build()
    for p in (2, 3):
        sim.process(echo_server(procs[p])())

    def caller():
        call = procs[1].scatter([2, 3], "echo",
                                lambda server: {"n": server}, timeout=5.0)
        yield sim.timeout(1.5)  # local work while requests are in flight
        results = yield from call.gather()
        return (sorted(results), sim.now)

    proc = sim.process(caller())
    sim.run()
    # requests left at scatter() time: the replies were back at t=2.0,
    # so gathering after 1.5 of local work still finishes at 2.0
    assert proc.value == ([2, 3], 2.0)


def test_empty_target_set_gathers_immediately():
    sim, _, _, procs = build()

    def caller():
        results = yield from procs[1].scatter_gather(
            [], "echo", lambda server: {}, timeout=5.0)
        return (results, sim.now)

    proc = sim.process(caller())
    sim.run()
    assert proc.value == ({}, 0.0)
    assert procs[1].transport.fanout_latencies == [0.0]


def test_broadcast_collect_filters_and_respects_window():
    sim, _, _, procs = build()

    def acker(proc, value):
        def server():
            message = yield proc.receive("ping")
            proc.send(message.src, "pong", {"v": value})
        return server

    sim.process(acker(procs[2], "yes")())
    sim.process(acker(procs[3], "no")())
    # processor 4 never answers

    def caller():
        collected = yield from procs[1].broadcast_collect(
            [2, 3, 4], "ping", {}, reply_kind="pong", window=5.0,
            accept=lambda m: m.payload["v"] == "yes")
        return ([m.src for m in collected], sim.now)

    proc = sim.process(caller())
    sim.run()
    # the window runs to completion even with replies in hand:
    # collection is time-bounded, not count-bounded
    assert proc.value == ([2], 5.0)
    assert procs[1].transport.broadcasts == 1


def test_late_reply_is_counted_and_traced():
    from repro.node.transport import NoResponse
    from repro.obs.trace import Tracer

    sim, _, _, procs = build()
    tracer = Tracer(sim)
    procs[1].tracer = tracer
    sim.process(echo_server(procs[2], delay=5.0)())

    def caller():
        try:
            yield from procs[1].rpc(2, "echo", {"n": 1}, timeout=2.0)
        except NoResponse:
            return "timed-out"
        return "answered"

    proc = sim.process(caller())
    sim.run()
    assert proc.value == "timed-out"
    # the reply landed at t=7, long after the waiter gave up at t=2
    assert procs[1].transport.late_replies == 1
    assert procs[1]._reply_waiters == {}
    late = [e for e in tracer.events if e.etype == "msg.late-reply"]
    assert len(late) == 1
    assert late[0].pid == 1
    assert late[0].fields["src"] == 2
    assert late[0].fields["kind"] == "echo-reply"


def test_quorum_kill_leaves_no_reply_waiters():
    """Early-exit cleanup: killing straggler RPC workers must run their
    ``finally`` blocks, deregistering every reply waiter — and the
    straggler's eventual reply is dropped as a late reply, not an
    error."""
    sim, _, _, procs = build()
    sim.process(echo_server(procs[2])())
    sim.process(echo_server(procs[3])())
    sim.process(echo_server(procs[4], delay=50.0)())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=100.0,
            quorum=lambda partial: len(partial) >= 2)
        return (set(results), procs[1]._reply_waiters.copy(), sim.now)

    proc = sim.process(caller())
    sim.run()  # runs past t=52, when p4's reply finally arrives
    results, waiters_at_exit, finished_at = proc.value
    assert results == {2, 3} and finished_at == 2.0
    assert waiters_at_exit == {}  # killed workers cleaned up after themselves
    assert procs[1]._reply_waiters == {}
    assert procs[1].transport.late_replies == 1  # p4's orphaned reply
