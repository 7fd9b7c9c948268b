"""The one timed wait (``Simulator.wait``) and the rule that nothing is
scheduled that nobody awaits — a process's start included: its first
step runs in ``sim.process(...)``, so every budget below counts only
the events the process waits on.

``wait(event, delay, expired)`` yields ``event`` *itself*: whatever
triggers it resumes the waiter in that one dispatch.  The deadline is
one cancellable kernel call entry (no event) that — only if ``event``
is still untriggered when it is dispatched — ``cancel()``-s the event
and triggers it with ``expired``.  The tie rule: an event already
triggered when its deadline is dispatched wins.
"""

import pytest

from repro.sim import Event, ProcessCrashed, Simulator
from tests.sim.schedule import live_entries


class Parked(Event):
    """An event parked in a queue; ``cancel`` leaves it and records
    whether the event was still pending at that moment."""

    __slots__ = ("queue", "log")

    def __init__(self, sim, queue, log):
        super().__init__(sim)
        self.queue = queue
        self.log = log
        queue.append(self)

    def cancel(self):
        self.log.append(("cancel", self.triggered))
        self.queue.remove(self)


def test_winner_resumes_in_the_events_own_dispatch():
    """The event's own dispatch and no other — the start costs none,
    no composite sits between the event and its waiter, the losing
    deadline is cancelled, and the unawaited finish costs nothing."""
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter():
        value = yield from sim.wait(event, 10.0, "expired")
        seen.append((value, sim.now, sim.dispatched))

    sim.process(waiter())  # parked on the event by the time this returns
    event.succeed("won")
    sim.run()
    # resumed inside dispatch #1 (run() flushes its step count on exit)
    assert seen == [("won", 0.0, 0)]
    assert sim.dispatched == 1
    assert sim.now == 0.0  # the cancelled deadline never moved the clock


def test_resume_cancels_the_deadline():
    sim = Simulator()
    event = sim.event()

    def waiter():
        yield from sim.wait(event, 10.0)

    sim.process(waiter())
    sim.timeout(1.0).add_callback(lambda _e: event.succeed())
    sim.run(until=0.5)
    assert len(live_entries(sim)) == 2  # the deadline and the trigger
    sim.run()
    assert sim.now == 1.0 and sim._cancelled_count == 0
    assert not sim._queue and not sim._ready


def test_expiry_cancels_the_event_before_triggering_it():
    sim = Simulator()
    queue, log = [], []

    def waiter():
        value = yield from sim.wait(Parked(sim, queue, log), 3.0, "expired")
        log.append(("resumed", value, sim.now))

    sim.process(waiter())
    sim.run()
    # cancel() saw a pending event, and the waiter resumed after it
    assert log == [("cancel", False), ("resumed", "expired", 3.0)]
    assert queue == []
    # the deadline, the expired event: two dispatches
    assert sim.dispatched == 2


def test_expired_value_defaults_to_none():
    sim = Simulator()

    def waiter():
        return (yield from sim.wait(sim.event(), 2.0))

    proc = sim.process(waiter())
    sim.run(until=proc)
    assert proc.value is None and sim.now == 2.0


def test_tie_event_triggered_before_the_deadline_is_dispatched_wins():
    """Both land on t=5 and the trigger's entry is the older one: it
    triggers the event, then the deadline is dispatched — *before* the
    event's own entry, which is younger still — and must stand down."""
    sim = Simulator()
    queue, log = [], []
    event = Parked(sim, queue, log)
    sim.timeout(5.0).add_callback(lambda _e: event.succeed("granted"))

    def waiter():
        return (yield from sim.wait(event, 5.0, "expired"))

    proc = sim.process(waiter())
    sim.run(until=proc)
    assert proc.value == "granted" and sim.now == 5.0
    assert log == [] and queue == [event]  # never cancelled


def test_tie_deadline_dispatched_first_expires():
    """The mirror image: the deadline's entry is the older one, so at
    t=5 it finds the event untriggered; whoever comes later in that
    instant finds it triggered and out of its queue."""
    sim = Simulator()
    queue, log = [], []
    event = Parked(sim, queue, log)

    def waiter():
        return (yield from sim.wait(event, 5.0, "expired"))

    proc = sim.process(waiter())  # parked, its deadline pushed
    sim.timeout(5.0).add_callback(
        lambda _e: log.append(("late", event.triggered, list(queue))))
    sim.run()
    assert proc.value == "expired" and sim.now == 5.0
    assert log == [("cancel", False), ("late", True, [])]


def test_failed_event_propagates_and_cancels_the_deadline():
    sim = Simulator()
    bad = sim.event()

    def waiter():
        try:
            yield from sim.wait(bad, 10.0)
        except ValueError as exc:
            return str(exc)

    proc = sim.process(waiter())
    bad.fail(ValueError("poisoned"))
    sim.run(until=proc)
    assert proc.value == "poisoned"
    assert sim.now == 0.0 and live_entries(sim) == []


def test_kill_cancels_the_deadline_and_the_event():
    sim = Simulator()
    queue, log = [], []

    def waiter():
        yield from sim.wait(Parked(sim, queue, log), 10.0)
        raise AssertionError("a killed waiter never resumes")

    proc = sim.process(waiter())
    sim.run(until=1.0)
    assert len(live_entries(sim)) == 1 and len(queue) == 1
    proc.kill()
    assert live_entries(sim) == []  # no live schedule entry left
    assert queue == [] and log == [("cancel", False)]
    sim.run()
    assert sim.now == 1.0 and sim.dispatched == 0


# -- nothing is scheduled that nobody awaits ----------------------------------


def test_unawaited_finished_process_is_processed_at_once():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 7

    proc = sim.process(quick())
    sim.run()
    assert proc.processed and proc.ok and proc.value == 7
    assert not proc.is_alive
    assert sim.dispatched == 1  # the timeout; start and finish are free
    assert not sim._queue and not sim._ready


def test_waiting_on_a_finished_unawaited_process_crashes_loudly():
    sim = Simulator()

    def quick():
        return 7
        yield  # pragma: no cover

    def late_waiter(target):
        yield target

    child = sim.process(quick())  # ran to completion in this call
    assert child.processed and sim.dispatched == 0
    sim.process(late_waiter(child))
    with pytest.raises(ProcessCrashed, match="already processed"):
        sim.run()
    # ...but run(until=) on it is not a wait: the value is there
    assert sim.run(until=child) == 7


def test_awaited_process_still_delivers_its_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "result"

    def parent():
        return (yield sim.process(child()))

    proc = sim.process(parent())
    assert sim.run(until=proc) == "result"
    # timeout, child finish (awaited by the parent), parent finish
    # (awaited by run(until=...)); neither start is an event
    assert sim.dispatched == 3


def test_unawaited_failing_process_still_surfaces():
    sim = Simulator()

    def bomber():
        yield sim.timeout(1.0)
        raise ValueError("bad")

    sim.process(bomber())
    with pytest.raises(ProcessCrashed) as info:
        sim.run()
    assert isinstance(info.value.original, ValueError)
