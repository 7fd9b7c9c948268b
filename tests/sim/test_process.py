"""Unit tests for generator-based processes."""

import pytest

from repro.sim import ProcessCrashed, Simulator, start_process
from tests.sim.schedule import cancelled_entries, live_entries


def test_process_runs_to_completion():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))

    sim.process(worker())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 99

    proc = sim.process(worker())
    sim.run()
    assert proc.value == 99


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    proc = sim.process(parent())
    sim.run()
    assert proc.value == "child-result"
    assert sim.now == 5.0


def test_waiting_on_already_finished_process():
    sim = Simulator()

    def quick():
        return 7
        yield  # pragma: no cover

    def late_waiter(target):
        yield sim.timeout(3.0)
        value = yield target
        return value

    child = sim.process(quick())
    sim.run(until=1.0)
    assert child.triggered
    # A finished (processed) process cannot be waited on again; a fresh
    # wrapper event is the documented pattern, so this must crash loudly.
    waiter = sim.process(late_waiter(child))
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_kill_stops_process_silently():
    sim = Simulator()
    trace = []

    def victim():
        trace.append("a")
        yield sim.timeout(5.0)
        trace.append("b")  # must never run

    proc = sim.process(victim())
    sim.run(until=1.0)
    proc.kill()
    sim.run()
    assert trace == ["a"]
    assert not proc.is_alive


def test_kill_is_idempotent():
    sim = Simulator()

    def victim():
        yield sim.timeout(5.0)

    proc = sim.process(victim())
    sim.run(until=1.0)
    proc.kill()
    proc.kill()
    assert not proc.is_alive


def test_crashing_process_surfaces_exception():
    sim = Simulator()

    def bomber():
        yield sim.timeout(1.0)
        raise ValueError("bad")

    sim.process(bomber())
    with pytest.raises(ProcessCrashed) as info:
        sim.run()
    assert isinstance(info.value.original, ValueError)


def test_yielding_non_event_crashes_process():
    sim = Simulator()

    def confused():
        yield 42

    sim.process(confused())
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_active_process_visible_during_resume():
    sim = Simulator()
    seen = []

    def introspective():
        seen.append(sim.active_process)
        yield sim.timeout(1.0)
        seen.append(sim.active_process)

    proc = sim.process(introspective())
    sim.run()
    assert seen == [proc, proc]  # the first step names itself too
    assert sim.active_process is None


# -- the start rule: a process starts in the call that creates it -------------


def test_first_step_runs_inside_the_creating_call():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("first step")
        yield sim.timeout(1.0)
        trace.append("second step")

    proc = sim.process(worker())
    # visible before run(): nothing was scheduled to start it
    assert trace == ["first step"] and sim.dispatched == 0
    assert proc.is_alive and proc.target is not None
    sim.run()
    assert trace == ["first step", "second step"] and sim.dispatched == 1


def test_generator_that_never_yields_dispatches_nothing():
    sim = Simulator()

    def quick():
        return 7
        yield  # pragma: no cover

    proc = sim.process(quick())
    assert proc.processed and proc.ok and proc.value == 7
    assert not proc.is_alive
    sim.run()
    assert sim.dispatched == 0
    assert not sim._queue and not sim._ready


def test_first_step_triggers_queue_behind_entries_already_due():
    """What still holds of "a fresh process never preempts deliveries
    due at this instant": the first step *runs* at once, but what it
    triggers is dispatched after every entry already queued there."""
    sim = Simulator()
    order = []
    earlier, fresh = sim.event(), sim.event()
    earlier.add_callback(lambda _e: order.append("already queued"))
    fresh.add_callback(lambda _e: order.append("triggered by first step"))
    earlier.succeed()

    def starter():
        order.append("first step")
        fresh.succeed()
        yield sim.timeout(1.0)

    sim.process(starter())
    sim.run()
    assert order == ["first step", "already queued",
                     "triggered by first step"]


def test_crash_in_first_step_is_reported_like_any_other():
    def bomber():
        raise ValueError("bad")
        yield  # pragma: no cover

    sim = Simulator()
    proc = sim.process(bomber(), name="bomber-1")  # reported, not raised
    assert not proc.is_alive
    with pytest.raises(ProcessCrashed, match="bomber-1") as info:
        sim.run()
    assert isinstance(info.value.original, ValueError)
    assert info.value.process is proc


def test_kill_of_a_process_parked_on_its_first_target_cancels_it():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(5.0)
        raise AssertionError("a killed process never resumes")

    proc = sim.process(sleeper())
    assert live_entries(sim)
    proc.kill()
    assert cancelled_entries(sim) == 1 and not live_entries(sim)
    assert proc.target is None
    sim.run()
    assert sim.dispatched == 0 and sim.now == 0.0


def test_nested_start_leaves_the_outer_process_active():
    sim = Simulator()
    seen = []

    def inner():
        seen.append(("inner first step", sim.active_process))
        yield sim.timeout(1.0)

    def outer():
        yield sim.timeout(1.0)
        seen.append(("started", sim.process(inner())))
        seen.append(("outer, after the start", sim.active_process))

    proc = sim.process(outer())
    assert sim.active_process is None  # restored after a top-level start
    sim.run()
    nested = seen[1][1]
    assert nested is not proc
    assert seen == [("inner first step", nested), ("started", nested),
                    ("outer, after the start", proc)]
    assert sim.active_process is None


def test_one_shot_first_step_has_no_process_to_name():
    """The no-``Process`` fast path cannot name itself in its first
    step — ``active_process`` is ``None`` there, never somebody else —
    and does from its second step on, once waiting made it a process."""
    sim = Simulator()
    seen = []

    def body(wait):
        seen.append(sim.active_process)
        if wait:
            yield sim.timeout(1.0)
            seen.append(sim.active_process)

    def outer():
        yield sim.timeout(1.0)
        assert start_process(sim, body(False), "quick", one_shot=True) is None
        seen.append(sim.active_process)

    proc = sim.process(outer())
    waited = start_process(sim, body(True), "waits", one_shot=True)
    sim.run()
    assert seen == [None, None, proc, waited]


def test_unparkable_yield_fails_the_process_with_the_crash_report():
    """A yield the kernel refuses (a non-event, a processed event) has
    no exception of the generator's own: the process event fails with
    the ``ProcessCrashed`` wrapper, in its first step as in a later one,
    and ``run()`` raises that same report."""
    for steps_before in (0, 1):
        sim = Simulator()
        spent = sim.event()
        spent.succeed()
        sim.run()

        def bad(target, steps=steps_before):
            for _ in range(steps):
                yield sim.timeout(1.0)
            yield target

        for target, original in ((42, TypeError), (spent, RuntimeError)):
            proc = sim.process(bad(target))
            proc.defuse()
            with pytest.raises(ProcessCrashed) as info:
                sim.run()
            assert info.value is proc.value
            sim.run()  # the defused failure dispatches silently
            assert isinstance(proc.value, ProcessCrashed)
            assert proc.value.process is proc
            assert isinstance(proc.value.original, original)


def test_run_until_a_process_finished_at_creation_returns_at_once():
    sim = Simulator()
    sim.timeout(9.0)  # must not be reached

    def quick():
        return "done"
        yield  # pragma: no cover

    def bomber():
        raise ValueError("bad")
        yield  # pragma: no cover

    assert sim.run(until=sim.process(quick())) == "done"
    assert sim.dispatched == 0 and sim.now == 0.0
    # a crash at creation is still a crash: run() reports it
    with pytest.raises(ProcessCrashed):
        sim.run(until=sim.process(bomber()))
    # ...and once its failure was dispatched, run(until=) re-raises it
    sim = Simulator()
    crashed = sim.process(bomber())
    crashed.defuse()
    with pytest.raises(ProcessCrashed):
        sim.run()
    sim.run()
    assert crashed.processed
    with pytest.raises(ValueError, match="bad"):
        sim.run(until=crashed)
