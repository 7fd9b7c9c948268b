"""Unit tests for the processor runtime."""

import random

import pytest

from repro.net import CommGraph, FixedLatency, Network
from repro.node import Processor
from repro.node.processor import SPAWN_SLACK
from repro.sim import Simulator
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment
from tests.node.calls import ask
from tests.sim.schedule import live_entries


def build(n=3):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def test_send_and_receive_by_kind():
    sim, _, _, procs = build()
    got = []
    procs[2].serve("ping", lambda message: got.append(
        (message.src, message.payload["n"], sim.now)))
    procs[1].send(2, "ping", {"n": 7})
    sim.run()
    assert got == [(1, 7, 1.0)]


def test_handlers_separate_kinds():
    sim, _, _, procs = build()
    alphas, betas = [], []
    procs[2].serve("alpha", lambda message: alphas.append(message.kind))
    procs[2].serve("beta", lambda message: betas.append(message.kind))
    procs[1].send(2, "alpha")
    procs[1].send(2, "beta")
    sim.run()
    assert betas == ["beta"]
    assert alphas == ["alpha"]


def test_rpc_roundtrip():
    sim, _, _, procs = build()
    procs[2].serve("echo", lambda request: procs[2].reply(
        request, "echo-reply", {"text": request.payload["text"]}))

    def client():
        payload = yield from ask(procs[1], 2, "echo", {"text": "hi"},
                                 timeout=5.0)
        return (payload["text"], sim.now)

    proc = sim.process(client())
    sim.run()
    assert proc.value == ("hi", 2.0)  # 1.0 each way


def test_rpc_silence_is_none_at_the_deadline():
    sim, graph, _, procs = build()
    graph.cut_link(1, 2)

    def client():
        payload = yield from ask(procs[1], 2, "echo", {}, timeout=3.0)
        return (payload, sim.now)

    proc = sim.process(client())
    sim.run()
    assert proc.value == (None, 3.0)
    assert procs[1].transport.no_responses == 1


def test_late_reply_after_timeout_is_dropped():
    sim, _, _, procs = build()

    def slow_server(request):
        yield sim.timeout(10.0)  # reply far too late
        procs[2].reply(request, "ask-reply")

    outcomes = []

    def client():
        if (yield from ask(procs[1], 2, "ask", timeout=2.0)) is None:
            outcomes.append("timeout")

    procs[2].serve_spawned("ask", slow_server)
    sim.process(client())
    sim.run()  # the late reply reaches no handler: unserved, it would raise
    assert outcomes == ["timeout"]
    assert procs[1].transport.late_replies == 1


def test_crash_kills_tasks():
    sim, graph, _, procs = build()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    procs[2].add_task("ticker", ticker)
    procs[2].start()
    sim.run(until=3.5)
    graph.crash_node(2)
    procs[2].crash()
    count_at_crash = len(ticks)
    sim.run(until=10.0)
    assert len(ticks) == count_at_crash


def test_recover_respawns_tasks_and_runs_hooks():
    sim, graph, _, procs = build()
    ticks = []
    hooks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    procs[2].add_task("ticker", ticker)
    procs[2].on_crash(lambda: hooks.append("crash"))
    procs[2].on_recover(lambda: hooks.append("recover"))
    procs[2].start()
    sim.run(until=2.5)
    procs[2].crash()
    sim.run(until=5.0)
    procs[2].recover()
    sim.run(until=7.5)
    assert hooks == ["crash", "recover"]
    assert any(t > 5.0 for t in ticks)
    assert all(not (2.5 < t <= 5.0) for t in ticks)


def test_crashed_processor_drops_deliveries():
    sim, graph, _, procs = build()
    got = []
    procs[2].serve("ping", got.append)
    procs[2].crash()
    procs[1].send(2, "ping")
    sim.run()
    assert got == []


def test_messages_to_self_are_delivered():
    sim, _, _, procs = build()
    got = []
    procs[1].serve("note", lambda message: got.append(message.src))
    procs[1].send(1, "note")
    sim.run()
    assert got == [1]


def test_duplicate_task_name_rejected():
    sim, _, _, procs = build()
    procs[1].add_task("t", lambda: iter(()))
    with pytest.raises(KeyError):
        procs[1].add_task("t", lambda: iter(()))


def test_store_survives_crash():
    sim, _, _, procs = build()
    procs[1].store.place("x", initial=42, date=(1, 1))
    procs[1].crash()
    procs[1].recover()
    assert procs[1].store.read("x") == (42, (1, 1))


# -- the handler table (Processor.serve) --------------------------------------


def test_served_kind_runs_at_delivery_and_never_enters_a_mailbox():
    sim, _, _, procs = build()
    got = []
    procs[2].serve("ping", lambda m: got.append((m.src, m.payload["n"],
                                                  sim.now)))
    before = sim.dispatched
    procs[1].send(2, "ping", {"n": 7})
    sim.run()
    assert got == [(1, 7, 1.0)]
    # one kernel event per message: its delivery, nothing queued behind it
    assert sim.dispatched - before == 1


def test_unserved_kind_raises_at_delivery():
    """A kind nobody serves is a wiring error, reported at the delivery
    event — not queued where no protocol would ever read it.  Serving
    other kinds, and an open collection window, change nothing."""
    sim, _, _, procs = build()
    procs[2].serve("ask", lambda m: procs[2].send(m.src, "answer",
                                                  {"from": 2}))
    procs[3].serve("ask", lambda m: procs[3].send(m.src, "answer",
                                                  {"from": 3}))

    def collector():
        accepted = yield from procs[1].broadcast_collect(
            [2, 3], "ask", None, reply_kind="answer", window=5.0,
            accept=lambda m: True)
        return sorted(m.payload["from"] for m in accepted), sim.now

    proc = sim.process(collector())
    procs[2].send(1, "stray")
    with pytest.raises(KeyError, match="stray"):
        sim.run()
    sim.run()  # the raise consumed only the stray's delivery event
    assert proc.value == ([2, 3], 5.0)


def test_reply_goes_to_its_rpc_waiter_even_when_its_kind_is_served():
    sim, _, _, procs = build()
    served = []
    procs[1].serve("echo", served.append)
    procs[2].serve("echo", lambda m: procs[2].reply(m, "echo", m.payload))

    def client():
        payload = yield from ask(procs[1], 2, "echo", {"text": "hi"},
                                 timeout=5.0)
        return payload["text"]

    proc = sim.process(client())
    sim.run()
    assert proc.value == "hi"
    assert served == []  # the reply never reached p1's own "echo" handler


def test_crash_drops_served_messages_and_recovery_serves_again():
    sim, graph, _, procs = build()
    started, finished = [], []

    def slow(message):
        started.append(sim.now)
        yield sim.timeout(10.0)
        finished.append(sim.now)

    procs[2].serve_spawned("work", slow)
    procs[1].send(2, "work")
    sim.run(until=2.0)
    assert started == [1.0]
    procs[2].crash()  # the handler's process dies with the processor...
    procs[1].send(2, "work")  # ...and a down processor serves nothing
    sim.run(until=20.0)
    assert (started, finished) == ([1.0], [])
    procs[2].recover()  # same registration, no re-serve() call
    procs[1].send(2, "work")
    sim.run()
    assert (started, finished) == ([1.0, 21.0], [31.0])


def test_serving_a_kind_twice_raises():
    _, _, _, procs = build()
    procs[1].serve("ping", lambda m: None)
    with pytest.raises(KeyError):
        procs[1].serve("ping", lambda m: None)
    with pytest.raises(KeyError):
        procs[1].serve_spawned("ping", lambda m: iter(()))


def test_served_kinds_arriving_at_one_instant_run_in_arrival_order():
    sim, _, _, procs = build()
    order = []
    # registered b-then-a; arrival order, not registration order, decides
    procs[2].serve("b", lambda m: order.append(("b", m.src, sim.now)))
    procs[2].serve("a", lambda m: order.append(("a", m.src, sim.now)))
    procs[1].send(2, "a")
    procs[3].send(2, "b")
    procs[1].send(2, "b")
    procs[3].send(2, "a")
    sim.run()
    assert order == [("a", 1, 1.0), ("b", 3, 1.0), ("b", 1, 1.0),
                     ("a", 3, 1.0)]


# -- one-shot process tracking (Processor.spawn) -------------------------------


def test_spawn_forgets_finished_processes():
    sim, _, _, procs = build()
    proc = procs[1]

    def short():
        yield sim.timeout(1.0)

    def keeper():
        yield sim.timeout(10_000.0)

    live = [proc.spawn("keeper", keeper()) for _ in range(3)]
    for _ in range(1000):
        proc.spawn("short", short())
        sim.run(until=sim.now + 2.0)
        assert len(proc._spawned) <= 2 * (len(live) + 1) + SPAWN_SLACK
    assert all(p in proc._spawned for p in live)
    proc.crash()
    assert not any(p.is_alive for p in live)
    assert proc._spawned == []


def test_tracked_one_shots_are_bounded_by_in_flight_work():
    """Failure-free run: every access spawns a handler process, yet a
    processor tracks only the live ones plus the prune slack, not
    every process ever spawned — however long the run."""
    for duration in (150.0, 600.0):
        result = run_experiment(ExperimentSpec(
            processors=5, objects=20, seed=1, duration=duration,
            workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=4,
                                  mean_interarrival=2.0)))
        assert result.committed > duration / 10
        for processor in result.cluster.processors.values():
            live = sum(p.is_alive for p in processor._spawned)
            assert len(processor._spawned) <= live + 4 * SPAWN_SLACK


# -- the fast path: a served body that never waits is no process --------------


def test_served_body_that_never_waits_is_one_event_and_no_process():
    sim, _, net, procs = build()
    served = []

    def body(message):
        served.append((message.payload["n"], sim.now))
        procs[2].reply(message, "pong", {"n": message.payload["n"]})
        return
        yield  # pragma: no cover - a generator that never waits

    procs[2].serve_spawned("ping", body)
    procs[1].serve("pong", lambda message: None)
    for n in range(3):
        procs[1].send(2, "ping", {"n": n})
    before = sim.dispatched
    sim.run(until=1.0)
    # three deliveries, nothing else: no start event, no Process
    assert sim.dispatched - before == 3
    assert served == [(0, 1.0), (1, 1.0), (2, 1.0)]  # arrival order
    assert procs[2]._spawned == []
    assert net.stats.sent == 6  # the replies left at the delivery instant


def test_spawn_returns_the_process_only_if_the_body_waits():
    sim, _, _, procs = build()

    def body(wait):
        if wait:
            yield sim.timeout(1.0)

    assert procs[1].spawn("quick", body(False)) is None
    waiting = procs[1].spawn("slow", body(True))
    assert waiting.is_alive and procs[1]._spawned == [waiting]
    assert sim.dispatched == 0


def test_served_body_that_waits_is_one_tracked_process():
    sim, _, _, procs = build()
    done = []

    def body(message):
        yield sim.timeout(2.0)
        done.append(sim.now)

    procs[2].serve_spawned("slow", body)
    procs[1].send(2, "slow")
    procs[1].send(2, "slow")
    sim.run(until=1.5)
    assert [p.name for p in procs[2]._spawned] == ["p2.serve-slow"] * 2
    assert all(p.is_alive and p.target is not None
               for p in procs[2]._spawned)
    victims = list(procs[2]._spawned)
    procs[2].crash()
    assert not any(p.is_alive for p in victims)
    sim.run()
    assert done == []  # killed: neither resumed

    procs[2].recover()
    procs[1].send(2, "slow")
    sim.run()
    assert done == [sim.now]
    # finished, so the next prune forgets it
    for _ in range(SPAWN_SLACK + 1):
        procs[2].spawn("keeper", body(None))
    assert all(p.is_alive for p in procs[2]._spawned)


def test_served_body_that_raises_at_its_first_line_crashes_the_run():
    sim, _, _, procs = build()

    def body(message):
        raise ValueError("bad request")
        yield  # pragma: no cover

    procs[2].serve_spawned("boom", body)
    procs[1].send(2, "boom")
    with pytest.raises(Exception, match=r"p2\.serve-boom") as info:
        sim.run()
    assert isinstance(info.value.original, ValueError)
    assert procs[2]._spawned == []


# -- priced waits without a process (Processor.after) -------------------------


def test_after_calls_at_now_plus_delay_in_one_event():
    sim, _, _, procs = build()
    calls = []
    sim.run(until=2.0)
    procs[1].after(1.5, lambda *args: calls.append((sim.now, args)), "a", 7)
    assert calls == [] and sim.dispatched == 0
    sim.run()
    assert calls == [(3.5, ("a", 7))]
    assert sim.dispatched == 1
    assert procs[1]._spawned == []  # a timer, never a process


def test_after_zero_delay_calls_inline_and_schedules_nothing():
    sim, _, _, procs = build()
    calls = []
    procs[1].after(0, calls.append, "now")
    assert calls == ["now"]
    assert not procs[1]._timers
    assert live_entries(sim) == []


def test_a_crash_cancels_after_and_a_recovery_does_not_revive_it():
    sim, _, _, procs = build()
    calls = []
    procs[2].after(2.0, calls.append, "late")
    sim.run(until=1.0)
    procs[2].crash()
    sim.run(until=1.5)
    procs[2].recover()  # inside the window
    sim.run()
    assert calls == []
    assert sim.dispatched == 0  # the cancelled timer is never dispatched
    procs[2].after(1.0, calls.append, "fresh")
    sim.run()
    assert calls == ["fresh"]


def test_pending_timers_are_exactly_the_live_ones():
    sim, _, _, procs = build()
    proc = procs[1]
    fired = []
    for _ in range(3):
        proc.after(10_000.0, fired.append, "keeper")
    keepers = list(proc._timers)
    for _ in range(1000):
        proc.after(1.0, fired.append, "short")
        assert len(proc._timers) == len(keepers) + 1
        sim.run(until=sim.now + 2.0)
        assert list(proc._timers) == keepers  # a fired timer leaves
    assert fired == ["short"] * 1000
    proc.crash()
    assert not proc._timers
    sim.run()
    assert fired == ["short"] * 1000
