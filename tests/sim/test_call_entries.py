"""The kernel's call entries (``Simulator.call``): a timer nobody
yields on is ``(time, key, fn, arg)`` on the schedule, dispatched as
``fn(arg)`` with no event behind it.  It takes the next sequence number
like any entry, so it keeps the ``(time, seq)`` order; a cancel takes
its key and keeps a timeout's guarantees."""

import random

import pytest

from repro.sim import EmptySchedule, Simulator
from tests.sim.schedule import cancelled_entries, live_entries


def test_call_runs_fn_on_arg_at_its_instant():
    sim = Simulator()
    seen = []
    sim.call(2.5, lambda arg: seen.append((sim.now, arg)), "x")
    sim.run()
    assert seen == [(2.5, "x")]
    assert sim.dispatched == 1


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().call(-1.0, print)


def test_same_instant_entries_dispatch_in_creation_order():
    """A call entry between a timeout and a ``succeed`` of one instant
    dispatches by creation, whichever structure holds each entry."""
    sim = Simulator()
    order = []
    sim.timeout(0.0).add_callback(lambda _e: order.append("timeout"))
    sim.call(0.0, order.append, "call")
    sim.event().succeed().add_callback(lambda _e: order.append("succeed"))
    sim.call(0.0, order.append, "call-2")
    sim.run()
    assert order == ["timeout", "call", "succeed", "call-2"]

    def later(_arg):
        # created at t=1 while a timeout made at t=0 is also due at 1
        sim.event().succeed().add_callback(lambda _e: order.append("s1"))
        sim.call(0.0, order.append, "c1")

    order.clear()
    sim.call(1.0, later)
    sim.timeout(1.0).add_callback(lambda _e: order.append("t0"))
    sim.run()
    assert order == ["t0", "s1", "c1"]


def test_cancelled_call_never_runs_and_is_not_dispatched():
    sim = Simulator()
    fired = []
    doomed = sim.call(1.0, fired.append, "doomed")
    sim.call(2.0, fired.append, "kept")
    sim.cancel(doomed)
    assert sim._cancelled_count == 1 and cancelled_entries(sim) == 1
    sim.run()
    assert fired == ["kept"]
    assert sim.dispatched == 1 and sim.now == 2.0
    assert sim._cancelled_count == 0 and not sim._cancelled_keys


def test_step_and_peek_see_call_entries():
    sim = Simulator()
    fired = []
    doomed = sim.call(1.0, fired.append, "doomed")
    sim.call(2.0, fired.append, "kept")
    sim.cancel(doomed)
    assert sim.peek() == 2.0
    assert sim._cancelled_count == 0  # peek discarded the dead entry
    assert [entry[3] for entry in live_entries(sim)] == ["kept"]
    sim.step()  # peek consumed nothing
    assert fired == ["kept"] and sim.now == 2.0 and sim.dispatched == 1
    with pytest.raises(EmptySchedule):
        sim.step()


def test_call_past_the_horizon_is_pushed_back():
    sim = Simulator()
    fired = []
    sim.call(10.0, fired.append, 10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0 and fired == []
    assert len(live_entries(sim)) == 1
    sim.run()
    assert fired == [10.0] and sim.now == 10.0


@pytest.mark.parametrize("compact_min", [0, 8])
def test_compaction_drops_dead_call_entries(compact_min):
    """Once cancelled entries (calls and timeouts alike) hold the
    majority past the threshold, the heap is rebuilt without them, the
    cancelled count stays exact, and the survivors fire in time order."""
    sim = Simulator(compact_min=compact_min)
    fired = []
    keys = [sim.call(float(i + 1), fired.append, i + 1) for i in range(60)]
    timeouts = [sim.timeout(100.0 + i) for i in range(20)]
    for key in keys[:50]:
        sim.cancel(key)
        assert sim._cancelled_count == cancelled_entries(sim)
    for timeout in timeouts[:15]:
        timeout.cancel()
        assert sim._cancelled_count == cancelled_entries(sim)
    assert len(sim._queue) < 80  # compacted at least once
    assert len(live_entries(sim)) == 15
    sim.run()
    assert fired == list(range(51, 61))
    assert sim.dispatched == 15
    assert sim._cancelled_count == 0 and not sim._cancelled_keys


def test_trace_hook_sees_call_entries():
    """The hook is called with a call entry's ``fn`` where an event
    entry passes its event; a cancelled entry is not seen."""
    sim = Simulator()
    seen = []
    sim.trace_hook = lambda when, target: seen.append((when, target))
    timeout = sim.timeout(1.0)
    record = []
    sim.call(2.0, record.append, "ran")
    sim.cancel(sim.call(1.5, record.append, "cancelled"))
    sim.run()
    assert seen == [(1.0, timeout), (2.0, record.append)]
    assert record == ["ran"] and sim.dispatched == len(seen)


# -- randomized: one total order over every shape ------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_mix_dispatches_in_time_then_creation_order(seed):
    """Timeouts, call entries, same-instant ``succeed``s and cancels of
    both cancellable shapes, created from inside dispatches too: the
    live entries dispatch exactly in ``(time, creation)`` order, as a
    sorted-list reference says, and nothing is left behind."""
    rng = random.Random(seed)
    sim = Simulator(compact_min=rng.choice([0, 4, 512]))
    created = 0
    reference = []  # (time, creation label) of every live entry
    dispatched = []
    pending_calls = {}  # label -> key, while the call entry is pending
    pending_timeouts = {}  # label -> timeout, while it is pending

    def fired(label):
        pending_calls.pop(label, None)
        pending_timeouts.pop(label, None)
        dispatched.append(label)
        if len(reference) < 400:
            spawn(rng.randrange(3))

    def spawn(count):
        nonlocal created
        for _ in range(count):
            label = created
            created += 1
            roll = rng.random()
            delay = rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)])
            if roll < 0.35:
                pending_calls[label] = sim.call(delay, fired, label)
            elif roll < 0.7:
                timeout = sim.timeout(delay)
                timeout.add_callback(lambda _e, label=label: fired(label))
                pending_timeouts[label] = timeout
            else:
                delay = 0.0
                sim.event().succeed().add_callback(
                    lambda _e, label=label: fired(label))
            reference.append((sim.now + delay, label))
        # cancel a few pending entries of either cancellable shape
        for pending in (pending_calls, pending_timeouts):
            if pending and rng.random() < 0.3:
                label = rng.choice(sorted(pending))
                victim = pending.pop(label)
                if isinstance(victim, int):
                    sim.cancel(victim)
                else:
                    victim.cancel()
                reference.remove(next(r for r in reference if r[1] == label))
        assert sim._cancelled_count == cancelled_entries(sim)

    spawn(20)
    while sim.peek() != float("inf"):
        sim.run(until=sim.now + rng.choice([0.25, 1.0]))
        assert sim._cancelled_count == cancelled_entries(sim)
    assert dispatched == [label for _, label in sorted(reference)]
    assert sim.dispatched == len(dispatched)
    assert sim._cancelled_count == 0 and not sim._cancelled_keys
    assert not sim._queue and not sim._ready
