"""Strict 2PL's timed lock wait: the grant-vs-deadline tie.

The tie rule of ``Simulator.wait``: *an event already triggered when
its deadline is dispatched wins*.  Were the dispatch order of the two
same-instant entries to decide instead, a waiter would be told
``cc-timeout`` while the lock table already shows it holding the lock.
"""

from repro.cc.locks import EXCLUSIVE, SHARED
from repro.cc.strategy import REJECTED_TIMEOUT
from repro.cc.twopl import TwoPhaseLocking
from repro.sim import Simulator


def hold_x_until(sim, cc, obj, release_at):
    """``T1`` takes X on ``obj`` at once and finishes at ``release_at``."""
    def holder():
        verdict = yield from cc.begin_write("T1", None, obj)
        assert verdict == (True, None)
        yield sim.timeout(release_at)
        cc.finish("T1", "commit")

    sim.process(holder())


def test_grant_at_the_deadline_instant_wins():
    """T1 releases at t=5, exactly when T2's ``lock_timeout`` expires:
    the release grants T2 before the deadline is dispatched, so T2 is
    admitted — never ``cc-timeout`` with X in the table."""
    sim = Simulator()
    cc = TwoPhaseLocking(sim, lock_timeout=5.0)
    hold_x_until(sim, cc, "x", 5.0)

    def waiter():
        verdict = yield from cc.begin_write("T2", None, "x")
        return (verdict, sim.now)

    proc = sim.process(waiter())
    sim.run()
    assert proc.value == ((True, None), 5.0)
    assert cc.locks.holders("x") == {"T2": EXCLUSIVE}
    assert not sim._queue and not sim._ready  # the deadline is gone


def test_read_gate_granted_at_the_deadline_instant_is_released():
    """The same schedule through ``stable_read_gate``: the gate is
    granted, so its short S lock is released again — a ``False`` here
    would leave ``('cc-gate', 1)`` in the table for ever."""
    sim = Simulator()
    cc = TwoPhaseLocking(sim, lock_timeout=5.0)
    hold_x_until(sim, cc, "y", 5.0)

    def recovery_read():
        granted = yield from cc.stable_read_gate("y")
        return (granted, sim.now)

    proc = sim.process(recovery_read())
    sim.run()
    assert proc.value == (True, 5.0)
    assert cc.locks.holders("y") == {}
    assert cc.active_txns() == set()


def test_expiry_leaves_the_queue_and_promotes_the_next_waiter():
    """Release one tick after the deadline: T2 times out, leaves the
    queue, and T3 — queued behind it — is promoted in the deadline's
    own dispatch."""
    sim = Simulator()
    cc = TwoPhaseLocking(sim, lock_timeout=5.0)
    verdicts = {}

    def reader(txn, start, release_at):
        if start:
            yield sim.timeout(start)
        verdicts[txn] = (yield from cc.begin_read(txn, None, "x")), sim.now
        yield sim.timeout(release_at - sim.now)
        cc.finish(txn, "commit")

    def writer():
        verdicts["T2"] = (yield from cc.begin_write("T2", None, "x")), sim.now

    sim.process(reader("T1", 0.0, 6.0))   # holds S over [0, 6]
    sim.process(writer())                 # X queues at t=0, deadline t=5
    sim.process(reader("T3", 1.0, 9.0))   # S must not barge past the X
    sim.run(until=4.5)
    assert cc.locks.queue_length("x") == 2
    sim.run(until=5.0)  # T2's deadline, and the grants it makes
    assert sim.now == 5.0
    assert cc.locks.queue_length("x") == 0
    assert cc.locks.holders("x") == {"T1": SHARED, "T3": SHARED}
    sim.run()
    assert verdicts["T2"] == ((False, REJECTED_TIMEOUT), 5.0)
    assert verdicts["T3"] == ((True, None), 5.0)
    assert cc.locks.holders("x") == {}
