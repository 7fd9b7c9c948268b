"""Unit tests for the Notifier condition primitive."""

from repro.sim import Notifier, Simulator


def test_notify_releases_all_current_waiters():
    sim = Simulator()
    notifier = Notifier(sim)
    woken = []

    def waiter(tag):
        yield notifier.wait()
        woken.append((tag, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))
    sim.timeout(3.0).add_callback(lambda e: notifier.notify_all())
    sim.run()
    assert sorted(woken) == [("a", 3.0), ("b", 3.0)]


def test_new_waiters_need_a_new_notification():
    sim = Simulator()
    notifier = Notifier(sim)
    woken = []

    def late_waiter():
        yield sim.timeout(5.0)
        yield notifier.wait()
        woken.append(sim.now)

    sim.process(late_waiter())
    sim.timeout(3.0).add_callback(lambda e: notifier.notify_all())
    sim.timeout(8.0).add_callback(lambda e: notifier.notify_all())
    sim.run()
    assert woken == [8.0]


def test_waiting_count():
    sim = Simulator()
    notifier = Notifier(sim)

    def waiter():
        yield notifier.wait()

    sim.process(waiter())
    sim.process(waiter())
    sim.run(until=1.0)
    assert notifier.waiting == 2
    notifier.notify_all()
    assert notifier.waiting == 0


def test_notify_with_no_waiters_is_noop():
    sim = Simulator()
    notifier = Notifier(sim)
    notifier.notify_all()
    assert notifier.waiting == 0
