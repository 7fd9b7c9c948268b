"""Unit tests for generator-based processes."""

import pytest

from repro.sim import ProcessCrashed, Simulator


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


def test_non_strict_mode_records_crashes():
    sim = Simulator()
    sim.strict = False

    def bomber():
        yield sim.timeout(1.0)
        raise ValueError("bad")

    def survivor():
        yield sim.timeout(2.0)
        return "ok"

    proc = sim.process(bomber())
    proc.defuse()
    other = sim.process(survivor())
    sim.run()
    assert other.value == "ok"
    assert len(sim.crashes) == 1


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
    assert seen == [proc, proc]
    assert sim.active_process is None
