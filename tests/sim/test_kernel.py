"""Unit tests for the simulation kernel event loop."""

import pytest

from repro.sim import (
    EmptySchedule,
    ProcessCrashed,
    Simulator,
    StopSimulation,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_run_until_horizon_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_past_horizon_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed(42)
    sim.run()
    assert seen == [42]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError())


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unwaited_failed_event_raises_at_step():
    sim = Simulator()
    sim.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    event = sim.event()
    event.defuse()
    event.fail(ValueError("boom"))
    sim.run()  # no raise


def test_run_until_event_returns_value():
    sim = Simulator()

    def producer():
        yield sim.timeout(2.0)
        return "done"

    proc = sim.process(producer())
    assert sim.run(until=proc) == "done"
    assert sim.now == 2.0


def test_run_until_event_empty_schedule_raises():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(EmptySchedule):
        sim.run(until=never)


def test_run_until_failed_event_reraises():
    sim = Simulator()

    def bomber():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    proc = sim.process(bomber())
    with pytest.raises((RuntimeError, ProcessCrashed)):
        sim.run(until=proc)


def test_stop_simulation_from_process():
    sim = Simulator()

    def stopper():
        yield sim.timeout(1.0)
        raise StopSimulation("early")

    sim.process(stopper())
    sim.timeout(100.0)
    assert sim.run() == "early"
    assert sim.now == 1.0


def test_value_access_before_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_empty_run_is_noop():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_clock_advances_to_horizon_when_queue_drains():
    """Regression: successive run(until=t) calls must never leave the
    clock behind the requested horizon, or actions between runs happen
    'in the past'."""
    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=5.0)
    assert sim.now == 5.0
    sim.run(until=9.0)
    assert sim.now == 9.0
