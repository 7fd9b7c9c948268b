"""Fast-path semantics: the single-pop dispatch loop, real
``_cancelled`` attributes, and lazy-deletion compaction must be
observably identical to the old peek-then-pop kernel.  (The golden
trace sha in ``tests/properties/test_storage_transparency.py`` pins
the same claim end-to-end.)"""

import random

import pytest

from repro.sim import EmptySchedule, Simulator
from repro.sim.events import Event, Timeout
from repro.sim.kernel import _COMPACT_MIN
from tests.sim.schedule import cancelled_entries, is_cancelled


def test_cancelled_timeouts_are_never_dispatched():
    sim = Simulator()
    fired = []
    doomed = sim.timeout(1.0)
    doomed.add_callback(lambda e: fired.append("doomed"))
    sim.timeout(2.0).add_callback(lambda e: fired.append("kept"))
    doomed.cancel()
    sim.run()
    assert fired == ["kept"]
    assert sim.now == 2.0


def test_dispatched_counter_skips_cancelled_events():
    sim = Simulator()
    survivors = [sim.timeout(float(i)) for i in range(1, 6)]
    for victim in survivors[::2]:
        victim.cancel()
    sim.run()
    # 5 scheduled, 3 cancelled (indices 0, 2, 4): only 2 dispatch
    assert sim.dispatched == 2


def test_step_and_peek_share_the_skip_rule():
    sim = Simulator()
    first = sim.timeout(1.0)
    sim.timeout(2.0)
    first.cancel()
    assert sim.peek() == 2.0
    # peek must not consume: step dispatches the same event
    sim.step()
    assert sim.now == 2.0
    with pytest.raises(EmptySchedule):
        sim.step()


def test_double_cancel_is_idempotent():
    sim = Simulator()
    doomed = sim.timeout(1.0)
    doomed.cancel()
    doomed.cancel()
    assert sim._cancelled_count == 1
    sim.timeout(2.0)
    sim.run()
    assert sim.now == 2.0


def test_anyof_loser_timer_is_cancelled():
    """(Named for the ``AnyOf`` race ``Simulator.wait`` replaced.)"""
    sim = Simulator()
    inbox = sim.event(name="inbox")
    outcomes = []

    def receiver():
        outcomes.append((yield from sim.wait(inbox, 10.0, "expired")))

    def sender():
        yield sim.timeout(1.0)
        inbox.succeed("hello")

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert outcomes == ["hello"]
    # the losing timer's timeout never fires: the clock stops at the
    # message delivery, not at the 10.0 expiry
    assert sim.now == 1.0


def test_unhandled_failed_event_raises():
    sim = Simulator()
    sim.event().fail(ValueError("nobody is listening"))
    with pytest.raises(ValueError, match="nobody is listening"):
        sim.run()


def test_non_strict_crash_recording_still_works():
    sim = Simulator()
    sim.strict = False

    def bomber():
        yield sim.timeout(1.0)
        raise ValueError("bad")

    def survivor():
        yield sim.timeout(2.0)
        return "ok"

    sim.process(bomber()).defuse()
    other = sim.process(survivor())
    sim.run()
    assert other.value == "ok"
    assert len(sim.crashes) == 1
    assert isinstance(sim.crashes[0].original, ValueError)


def test_compaction_evicts_cancelled_entries():
    """Once cancelled entries outnumber live ones past the threshold,
    the heap is rebuilt without them — and the surviving events still
    fire in exactly time order."""
    sim = Simulator()
    total = 2 * _COMPACT_MIN + 400
    timeouts = [sim.timeout(float(i + 1)) for i in range(total)]
    victims = timeouts[: 2 * _COMPACT_MIN]  # cancel a clear majority
    for victim in victims:
        victim.cancel()
    # lazy deletion compacted at least once: far fewer entries than
    # were scheduled, and the debt counter was reset below the threshold
    assert len(sim._queue) < total - _COMPACT_MIN
    assert sim._cancelled_count < _COMPACT_MIN

    fired = []
    for keeper in timeouts[2 * _COMPACT_MIN:]:
        keeper.add_callback(lambda e: fired.append(e.delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == 400
    assert sim.dispatched == 400


def test_trace_hook_sees_every_dispatch_in_order():
    sim = Simulator()
    seen = []
    sim.trace_hook = lambda when, event: seen.append(when)
    sim.timeout(2.0)
    doomed = sim.timeout(1.0)
    doomed.cancel()
    sim.timeout(3.0)
    sim.run()
    assert seen == [2.0, 3.0]
    assert sim.dispatched == len(seen)


def test_run_until_horizon_leaves_future_events_intact():
    """The single-pop loop must push a not-yet-due event back rather
    than losing it."""
    sim = Simulator()
    fired = []
    sim.timeout(10.0).add_callback(lambda e: fired.append(10.0))
    sim.run(until=4.0)
    assert sim.now == 4.0 and fired == []
    sim.run()
    assert fired == [10.0]


# -- schedule entries carry the event or the call ----------------------------
# An entry is ``(time, key, event)`` or ``(time, key, fn, arg)`` and a
# cancelled entry stays put until the kernel reaches it, so two things
# have to hold: the cancelled-entry debt counter matches what is really
# queued, and ordering never falls through to the third field.


@pytest.mark.parametrize("compact_min", [0, _COMPACT_MIN, 10**9])
def test_cancelled_count_matches_cancelled_entries(compact_min):
    """``_cancelled_count`` is exactly the number of queued entries
    that are cancelled — a timeout or a call entry; only the heap ever
    holds one — across cancel, compaction, peek, horizon push-back and
    dispatch.  A call entry is cancelled only while pending, as its
    owners do."""
    rng = random.Random(20240916)
    sim = Simulator(compact_min=compact_min)
    wait = [sim.timeout(0.0)]
    loose = []
    calls = {}  # keys of the pending call entries; each leaves as it fires

    def call(delay):
        def fire(_arg):
            del calls[key]

        key = sim.call(delay, fire)
        calls[key] = None

    def rearm(delay):
        """Cancel-and-replace: a superseded wait must never fire."""
        wait[0].cancel()
        wait[0] = sim.timeout(delay)
        return wait[0]

    def debt():
        assert not any(is_cancelled(sim, entry) for entry in sim._ready)
        return cancelled_entries(sim)

    def actor():
        for _ in range(600):
            roll = rng.random()
            if roll < 0.2:
                loose.append(sim.timeout(rng.uniform(0.0, 5.0)))
            elif roll < 0.3:
                call(rng.uniform(0.0, 5.0))
            elif roll < 0.45 and loose:
                loose.pop(rng.randrange(len(loose))).cancel()
            elif roll < 0.5 and calls:
                key = rng.choice(list(calls))
                del calls[key]
                sim.cancel(key)
            elif roll < 0.65:
                rearm(rng.uniform(0.0, 3.0))
            else:
                # a timed wait: the event is triggered on the spot,
                # later by a timer, or never (the deadline expires it)
                event = sim.event()
                roll = rng.random()
                if roll < 0.4:
                    event.succeed()
                elif roll < 0.7:
                    rearm(rng.uniform(0.0, 2.0)).add_callback(
                        lambda _e, event=event:
                        event.triggered or event.succeed())
                yield from sim.wait(event, rng.choice([0.0, 0.0, 1.0]))
            assert sim._cancelled_count == debt()

    sim.process(actor())
    while sim.peek() != float("inf"):
        assert sim._cancelled_count == debt()
        sim.run(until=sim.now + 0.75)
        assert sim._cancelled_count == debt()
    assert sim._cancelled_count == 0 and not sim._cancelled_keys
    assert not sim._queue and not sim._ready and not calls


class _Incomparable(Event):
    """An event that refuses to be ordered or equated."""

    __slots__ = ()
    __hash__ = Event.__hash__

    def __lt__(self, other):
        raise AssertionError("schedule compared two events")

    __gt__ = __le__ = __ge__ = __eq__ = __lt__


class _IncomparableTimeout(_Incomparable, Timeout):
    __slots__ = ()


class _IncomparableCall:
    """A call entry's function (or argument) that refuses to be ordered
    or equated."""

    __hash__ = object.__hash__

    def __call__(self, _arg):
        pass

    def __lt__(self, other):
        raise AssertionError("schedule compared two call entries")

    __gt__ = __le__ = __ge__ = __eq__ = __lt__


def test_same_instant_entries_order_by_key_never_by_event():
    """1 000 entries at one instant, through both the heap and the
    FIFO: dispatch order is creation order (``seq``) and tuple
    comparison stops at the key — sequence numbers are unique."""
    rng = random.Random(7)
    sim = Simulator()
    created = []
    for _ in range(1000):
        roll = rng.randrange(3)
        if roll == 0:
            created.append(_Incomparable(sim).succeed())
        elif roll == 1:
            # Simulator.timeout is the one Timeout constructor
            timeout = sim.timeout(0.0)
            timeout.__class__ = _IncomparableTimeout
            created.append(timeout)
        else:
            fn = _IncomparableCall()
            sim.call(0.0, fn, _IncomparableCall())
            created.append(fn)
    seen = []
    sim.trace_hook = lambda when, target: seen.append(id(target))
    sim.run()
    assert seen == [id(target) for target in created]
    assert sim.dispatched == 1000 and sim.now == 0.0
