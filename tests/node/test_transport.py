"""Unit tests for the request/reply call (``Processor.scatter``),
one target or many, and the ``broadcast_collect`` window."""

import random

import pytest

from repro.net import CommGraph, FixedLatency, Network
from repro.node import Processor
from repro.sim import Simulator
from tests.node.calls import ask
from tests.sim.schedule import live_entries


def build(n=4):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def echo_server(proc, kind="echo", delay=0.0):
    """Serve ``kind`` on ``proc``: echo each request ``delay`` later."""
    def echo(request):
        proc.reply(request, f"{kind}-reply",
                   {"pid": proc.pid, "n": request.payload["n"]})

    def delayed(request):
        yield proc.sim.timeout(delay)
        echo(request)

    if delay:
        proc.serve_spawned(kind, delayed)
    else:
        proc.serve(kind, echo)


def test_scatter_gather_collects_every_reply():
    sim, _, _, procs = build()
    for p in (2, 3, 4):
        echo_server(procs[p])

    def caller():
        results = yield from procs[1].scatter(
            [2, 3, 4], "echo", lambda server: {"n": server * 10},
            timeout=5.0).gather()
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
        echo_server(procs[p])

    def caller():
        results = yield from procs[1].scatter(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=3.0).gather()
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value[3] is None
    assert proc.value[2] == {"pid": 2, "n": 2}
    assert proc.value[4] == {"pid": 4, "n": 4}
    assert procs[1].transport.no_responses == 1
    # silence bounds the gather at the call's timeout, not forever
    assert procs[1].transport.fanout_latencies == [3.0]


def test_quorum_early_exit_kills_the_stragglers():
    sim, _, _, procs = build()
    echo_server(procs[2])
    echo_server(procs[3])
    echo_server(procs[4], delay=50.0)

    def caller():
        results = yield from procs[1].scatter(
            [2, 3, 4], "echo", lambda server: {"n": server},
            timeout=100.0).gather(lambda partial: len(partial) >= 2)
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
        echo_server(procs[p])

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
        results = yield from procs[1].scatter(
            [], "echo", lambda server: {}, timeout=5.0).gather()
        return (results, sim.now)

    proc = sim.process(caller())
    sim.run()
    assert proc.value == ({}, 0.0)
    assert procs[1].transport.fanout_latencies == [0.0]


def test_broadcast_collect_filters_and_respects_window():
    sim, _, _, procs = build()

    def acker(proc, value):
        proc.serve("ping", lambda message: proc.send(
            message.src, "pong", {"v": value}))

    acker(procs[2], "yes")
    acker(procs[3], "no")
    procs[4].serve("ping", lambda message: None)  # never answers

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
    from repro.obs.trace import Tracer

    sim, _, _, procs = build()
    tracer = Tracer(sim)
    procs[1].tracer = tracer
    echo_server(procs[2], delay=5.0)

    def caller():
        payload = yield from ask(procs[1], 2, "echo", {"n": 1}, timeout=2.0)
        return "timed-out" if payload is None else "answered"

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
    """Early-exit cleanup: dropping the straggler legs deregisters
    every reply waiter — and the straggler's eventual reply is dropped
    as a late reply, not an error."""
    sim, _, _, procs = build()
    echo_server(procs[2])
    echo_server(procs[3])
    echo_server(procs[4], delay=50.0)

    def caller():
        results = yield from procs[1].scatter(
            [2, 3, 4], "echo", lambda server: {"n": server},
            timeout=100.0).gather(lambda partial: len(partial) >= 2)
        return (set(results), procs[1]._reply_waiters.copy(), sim.now)

    proc = sim.process(caller())
    sim.run()  # runs past t=52, when p4's reply finally arrives
    results, waiters_at_exit, finished_at = proc.value
    assert results == {2, 3} and finished_at == 2.0
    assert waiters_at_exit == {}  # the dropped leg was deregistered
    assert procs[1]._reply_waiters == {}
    assert procs[1].transport.late_replies == 1  # p4's orphaned reply


# -- one wait shape: callbacks at the delivery event --------------------------
# A fan-out costs the kernel its messages, one deadline and one wake-up;
# a collection window its messages and one timeout.  The budgets below
# are closed forms, the way E16 pins the kernel churn.


def serve_echo(proc, kind="echo"):
    proc.serve(kind, lambda request: proc.reply(
        request, f"{kind}-reply", {"pid": proc.pid, "n": request.payload["n"]}))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_scatter_gather_event_budget(k):
    """k requests + k replies + the caller's wake-up (its start is no
    event — the requests leave inside ``sim.process`` — and its finish
    dispatches nothing: nobody awaits the caller)."""
    sim, _, _, procs = build(n=6)
    targets = list(range(2, 2 + k))
    for p in targets:
        serve_echo(procs[p])

    def caller():
        results = yield from procs[1].scatter(
            targets, "echo", lambda server: {"n": server}, timeout=5.0).gather()
        return results

    proc = sim.process(caller())
    sim.run(until=1.5)
    # in flight: k reply deliveries and the call's one deadline
    assert len(live_entries(sim)) == k + 1
    sim.run()
    assert sorted(proc.value) == targets
    assert sim.dispatched == 2 * k + 1
    assert sim.now == 2.0  # the cancelled deadline never moved the clock


@pytest.mark.parametrize("k", [1, 3, 5])
def test_broadcast_collect_event_budget(k):
    """k pings + k acks + the window timeout (the caller's start is no
    event and its finish dispatches nothing: nobody awaits it)."""
    sim, _, _, procs = build(n=6)
    targets = list(range(2, 2 + k))
    for p in targets:
        procs[p].serve("ping", lambda m, proc=procs[p]: proc.send(
            m.src, "pong", {"from": proc.pid}))

    def caller():
        collected = yield from procs[1].broadcast_collect(
            targets, "ping", {}, reply_kind="pong", window=5.0,
            accept=lambda m: True)
        return [m.payload["from"] for m in collected]

    proc = sim.process(caller())
    sim.run(until=1.5)
    assert len(live_entries(sim)) == k + 1  # k acks and the window
    sim.run()
    assert proc.value == targets
    assert sim.dispatched == 2 * k + 1


def test_gather_after_every_reply_does_not_wait():
    sim, _, _, procs = build()
    for p in (2, 3):
        serve_echo(procs[p])
    call = procs[1].scatter([2, 3], "echo", lambda server: {"n": server},
                            timeout=5.0)
    sim.run(until=3.0)  # both replies were back at t=2.0
    with pytest.raises(StopIteration) as stop:
        next(call.gather())
    assert sorted(stop.value.value) == [2, 3]
    assert procs[1].transport.fanout_latencies == [3.0]


def test_abandoned_scatter_cleans_up_at_the_deadline():
    """2PC abandons its prepare scatter when the local vote fails: the
    replies are absorbed, the silent leg is counted at the deadline."""
    sim, graph, _, procs = build()
    graph.cut_link(1, 3)
    for p in (2, 3, 4):
        serve_echo(procs[p])
    procs[1].scatter([2, 3, 4], "echo", lambda server: {"n": server},
                     timeout=3.0)
    sim.run(until=2.5)
    assert len(procs[1]._reply_waiters) == 1  # p3's leg
    sim.run()
    assert sim.now == 3.0
    stats = procs[1].transport
    assert procs[1]._reply_waiters == {}
    assert stats.no_responses == 1 and stats.late_replies == 0
    assert stats.fanout_latencies == []  # nobody gathered


def test_caller_crash_mid_fanout_counts_the_silent_legs():
    sim, _, _, procs = build()
    serve_echo(procs[2])
    for p in (3, 4):
        echo_server(procs[p], delay=5.0)

    def caller():
        yield from procs[1].scatter(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=4.0).gather()
        raise AssertionError("a crashed caller never resumes")

    procs[1].spawn("caller", caller())
    sim.run(until=2.5)  # p2 has answered, p3 and p4 have not
    procs[1].crash()
    assert procs[1]._reply_waiters == {}
    procs[1].recover()
    sim.run()
    stats = procs[1].transport
    assert stats.no_responses == 2  # counted by the deadline at t=4.0
    assert stats.late_replies == 2  # p3, p4 answered a forgotten call
    assert procs[1]._reply_waiters == {}


def test_reply_at_the_deadline_instant_is_late():
    """Round trip 2.0 against ``timeout=2.0``: the deadline was pushed
    before the reply's delivery, so it is dispatched first, forgets the
    registration in its own dispatch, and the reply — later in that
    instant — is counted late."""
    sim, _, _, procs = build()
    serve_echo(procs[2])

    def caller():
        results = yield from procs[1].scatter(
            [2], "echo", lambda server: {"n": server}, timeout=2.0).gather()
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value == {2: None}
    stats = procs[1].transport
    assert stats.no_responses == 1 and stats.late_replies == 1
    assert stats.fanout_latencies == [2.0]
    assert procs[1]._reply_waiters == {}


# -- one-target calls: Fig. 10's read, the txn-status query ------------------


def rpc_outcome(proc, dst, timeout, resumed=None):
    """A caller body: ``("answered", payload)`` or ``("silent", now)``,
    also appended to ``resumed`` if given."""
    def caller():
        payload = yield from ask(proc, dst, "echo", {"n": 1}, timeout=timeout)
        outcome = (("silent", proc.sim.now) if payload is None
                   else ("answered", payload))
        if resumed is not None:
            resumed.append(outcome)
        return outcome

    return caller()


def test_rpc_reply_at_the_deadline_instant_is_late_and_counted():
    """Round trip 2.0 against ``timeout=2.0``: the deadline was pushed
    first, so it is dispatched first, forgets the registration in its
    own dispatch, and the reply — later in that instant — is counted
    late, the rule ``test_reply_at_the_deadline_instant_is_late`` pins
    for a fan-out."""
    sim, _, _, procs = build()
    serve_echo(procs[2])
    proc = sim.process(rpc_outcome(procs[1], 2, timeout=2.0))
    sim.run()
    assert proc.value == ("silent", 2.0)
    stats = procs[1].transport
    assert stats.no_responses == 1 and stats.late_replies == 1
    assert procs[1]._reply_waiters == {}


def test_rpc_reply_before_the_deadline_resumes_in_its_own_dispatch():
    """Request, reply: the reply's delivery ends the call, one more
    dispatch resumes the caller — no start event, no finish event, and
    the deadline is cancelled, never dispatched."""
    sim, _, _, procs = build()
    serve_echo(procs[2])
    proc = sim.process(rpc_outcome(procs[1], 2, timeout=5.0))
    sim.run()
    assert proc.value == ("answered", {"pid": 2, "n": 1})
    assert sim.dispatched == 3 and sim.now == 2.0
    assert procs[1]._reply_waiters == {}


def test_second_reply_to_one_rpc_is_late_and_wakes_nobody():
    sim, _, net, procs = build()
    replies = []

    def server(request):
        procs[2].reply(request, "pong", {"n": 1})
        procs[2].reply(request, "pong", {"n": 2})  # same instant, same link

    def client():
        payload = yield from ask(procs[1], 2, "ping", timeout=10.0)
        replies.append(payload["n"])

    procs[2].serve("ping", server)
    sim.process(client(), name="client")
    sim.run()
    # the first pong ended the call; the second found nobody
    # waiting — counted late, handed to no handler
    assert net.stats.delivered == 3
    assert replies == [1]
    assert procs[1].transport.late_replies == 1


def test_bare_caller_on_a_crashed_processor_still_gets_no_response():
    """The runner's client is a bare ``sim.process``: a crash of its
    processor clears the reply table but does not kill it, so the
    deadline must still wake it."""
    sim, _, _, procs = build()
    procs[2].serve("echo", lambda request: None)  # silent
    proc = sim.process(rpc_outcome(procs[1], 2, timeout=4.0))
    sim.run(until=1.5)
    procs[1].crash()
    assert procs[1]._reply_waiters == {}
    sim.run()
    assert proc.value == ("silent", 4.0)


def test_gatherer_killed_mid_call_resumes_nobody_and_its_deadline_fires_once():
    """A crash kills the gathering process and forgets its reply
    registration, but the call is no task: its deadline still fires,
    once, counts the silent leg and wakes an event nobody waits on."""
    sim, _, _, procs = build()
    procs[2].serve("echo", lambda request: None)  # silent
    resumed = []
    procs[1].spawn("caller", rpc_outcome(procs[1], 2, 4.0, resumed))
    sim.run(until=1.5)  # the request was delivered at t=1.0
    procs[1].crash()
    assert procs[1]._reply_waiters == {}
    assert len(live_entries(sim)) == 1  # the deadline
    sim.run()
    assert sim.now == 4.0 and resumed == []
    # the request, the deadline and the wake-up nobody waits on
    assert sim.dispatched == 3
    stats = procs[1].transport
    assert stats.no_responses == 1
    assert stats.fanout_latencies == [] and stats.late_replies == 0


def test_result_order_target_without_quorum_arrival_with():
    sim, _, _, procs = build()
    serve_echo(procs[2])
    echo_server(procs[3], delay=1.0)
    echo_server(procs[4], delay=2.0)

    def caller():
        plain = yield from procs[1].scatter(
            [4, 2, 3], "echo", lambda server: {"n": server},
            timeout=9.0).gather()
        voted = yield from procs[1].scatter(
            [4, 2, 3], "echo", lambda server: {"n": server},
            timeout=9.0).gather(lambda partial: False)
        return (list(plain), list(voted))

    proc = sim.process(caller())
    sim.run()
    assert proc.value == ([4, 2, 3], [2, 3, 4])
    assert procs[1].transport.early_exits == 0


def test_second_window_on_an_open_reply_kind_raises():
    sim, _, _, procs = build()
    for silent in (2, 3):
        procs[silent].serve("ping", lambda message: None)
    first = procs[1].broadcast_collect(
        [2], "ping", {}, reply_kind="pong", window=5.0,
        accept=lambda m: True)
    sim.process(first)
    sim.run(until=1.0)
    second = procs[1].broadcast_collect(
        [3], "ping", {}, reply_kind="pong", window=5.0,
        accept=lambda m: True)
    with pytest.raises(KeyError):
        next(second)
    assert procs[1].transport.broadcasts == 1
    sim.run()  # the first window closes; the kind can be collected again
    third = procs[1].broadcast_collect(
        [3], "ping", {}, reply_kind="pong", window=5.0,
        accept=lambda m: True)
    next(third)
    assert procs[1].transport.broadcasts == 2


def test_killed_collector_leaves_the_kind_dropping():
    sim, _, _, procs = build()
    procs[2].serve("ping", lambda m: procs[2].send(m.src, "pong", {}))
    seen = []
    procs[1].spawn("collect", procs[1].broadcast_collect(
        [2], "ping", {}, reply_kind="pong", window=5.0,
        accept=lambda m: seen.append(m) or True))
    sim.run(until=1.5)
    procs[1].crash()
    procs[1].recover()
    sim.run()  # the ack lands at t=2.0 on a recovered processor
    assert seen == []
    # ...and the next window opens without complaint
    next(procs[1].broadcast_collect(
        [2], "ping", {}, reply_kind="pong", window=5.0,
        accept=lambda m: True))


# -- ScatterCall.then: the gather as a continuation, no process --------------


def collect_via(procs, call, how, sink):
    """Hand ``call``'s result map to ``sink`` by ``how``: "then", or
    "gather" in a process spawned on the caller."""
    if how == "then":
        call.then(sink)
        return

    def gatherer():
        sink((yield from call.gather()))

    procs[1].spawn("gatherer", gatherer())


def same_instant_order(how):
    """Where the end of a one-leg call lands among two same-instant
    ``succeed``-s: one triggered just before the reply finishes the
    call, one just after (both inside the reply's delivery)."""
    sim, _, _, procs = build()
    serve_echo(procs[2])
    order = []
    before, after = sim.event(), sim.event()
    before.add_callback(lambda _event: order.append("before"))
    after.add_callback(lambda _event: order.append("after"))
    call = procs[1].scatter([2], "echo", lambda server: {"n": 1},
                            timeout=5.0)
    (request_id, on_reply), = procs[1]._reply_waiters.items()

    def around(message):
        before.succeed()
        on_reply(message)
        after.succeed()

    procs[1]._reply_waiters[request_id] = around
    collect_via(procs, call, how, lambda _results: order.append("resumed"))
    sim.run()
    return order, sim.dispatched


def test_continuation_takes_the_slot_of_the_gather_wake_up():
    """Between the same-instant ``succeed`` before it and the one after
    it, exactly where a gathering process would resume — and at the
    same event count: the request, the reply, three wake-ups."""
    assert same_instant_order("then") == same_instant_order("gather") == (
        ["before", "resumed", "after"], 5)


@pytest.mark.parametrize("how", ["then", "gather"])
def test_continuation_marks_silent_legs_and_records_one_latency(how):
    sim, graph, _, procs = build()
    graph.cut_link(1, 3)
    for p in (2, 3):
        serve_echo(procs[p])
    call = procs[1].scatter([3, 2], "echo", lambda server: {"n": server},
                            timeout=4.0)
    taken = []
    collect_via(procs, call, how, taken.append)
    sim.run()
    assert taken == [{3: None, 2: {"pid": 2, "n": 2}}]
    assert list(taken[0]) == [3, 2]  # target order, as gather returns it
    stats = procs[1].transport
    assert stats.no_responses == 1
    assert stats.fanout_latencies == [4.0]  # once, at the deadline


def test_continuation_with_no_targets_runs_at_once():
    sim, _, _, procs = build()
    taken = []
    procs[1].scatter([], "echo", lambda server: {}, timeout=4.0).then(
        taken.append)
    assert taken == [{}]
    assert procs[1].transport.fanout_latencies == [0.0]
    assert sim.dispatched == 0


@pytest.mark.parametrize("recovered", [False, True])
@pytest.mark.parametrize("how", ["then", "gather"])
def test_continuation_after_a_crash_is_dispatched_and_does_nothing(
        how, recovered):
    """Like a killed gatherer's wake-up, the continuation of a crashed
    caller still takes its slot — the deadline ends the call — and is
    counted, but calls nothing and records no latency, whether or not
    the processor is back up by then."""
    sim, _, _, procs = build()
    echo_server(procs[2], delay=5.0)
    call = procs[1].scatter([2], "echo", lambda server: {"n": 1},
                            timeout=4.0)
    taken = []
    collect_via(procs, call, how, taken.append)
    sim.run(until=1.5)
    procs[1].crash()
    if recovered:
        procs[1].recover()
    sim.run()
    assert taken == []
    stats = procs[1].transport
    assert stats.fanout_latencies == []
    assert stats.no_responses == 1
    # request, the deadline, the end-of-call wake-up, the server's
    # timer, its reply (dropped at a down processor or counted late)
    assert sim.dispatched == 5
    assert stats.late_replies == (1 if recovered else 0)
