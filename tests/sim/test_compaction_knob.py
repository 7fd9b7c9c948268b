"""The ``compact_min`` constructor knob at its degenerate settings, and
the kernel's steady-state allocation profile.

``compact_min=0`` compacts as soon as cancelled entries hold the queue
majority; a huge value never compacts (pure lazy deletion).  Both must
be behavior-transparent: the same workload dispatches the same events
in the same order at any setting — only the internal queue residency
differs.  The tracemalloc test pins the flat core's allocation shape:
steady-state churn allocates O(live events), not O(dispatched events).
"""

import tracemalloc

import pytest

from repro.sim import Simulator
from repro.sim.kernel import _COMPACT_MIN


def _churn_sim(compact_min, pairs=3, msgs=30):
    """The bench's producer/consumer churn shape, sized for tests:
    every receive is a timed wait whose losing deadline is cancelled —
    the lazy-deletion traffic compaction exists for."""
    sim = Simulator(compact_min=compact_min)

    def producer(slot):
        for index in range(msgs):
            yield sim.timeout(1.0)
            slot[0].succeed(index)

    def consumer(slot):
        for _ in range(msgs):
            slot[0] = sim.event()
            yield from sim.wait(slot[0], 3.0)

    for index in range(pairs):
        slot = [None]
        sim.process(producer(slot), name=f"prod{index}")
        sim.process(consumer(slot), name=f"cons{index}")
    return sim


def test_negative_compact_min_rejected():
    with pytest.raises(ValueError):
        Simulator(compact_min=-1)


def test_compact_min_zero_compacts_eagerly():
    """At the 0 threshold, dead entries can never hold the majority for
    long: cancelling the whole queue collapses it geometrically."""
    sim = Simulator(compact_min=0)
    timeouts = [sim.timeout(10.0 + index) for index in range(100)]
    for timeout in timeouts:
        timeout.cancel()
    # each compaction fires as soon as dead entries outnumber live ones
    # (51 of 100, then 25 of 49, ...), so only a logarithmic tail of
    # dead entries can remain
    assert len(sim._queue) <= 8
    assert sim._cancelled_count <= 8
    sim.run()
    assert sim.dispatched == 0


def test_default_threshold_keeps_small_queues_lazy():
    """Below ``compact_min`` cancelled entries just linger — small
    simulations never pay a rebuild."""
    sim = Simulator()
    assert sim._compact_min == _COMPACT_MIN
    timeouts = [sim.timeout(10.0 + index) for index in range(100)]
    for timeout in timeouts:
        timeout.cancel()
    assert len(sim._queue) == 100
    assert sim._cancelled_count == 100
    sim.run()
    assert sim.dispatched == 0


def test_compact_min_huge_never_compacts():
    """A huge threshold is pure lazy deletion: every dead entry stays
    until the dispatch loop pops and skips it."""
    sim = Simulator(compact_min=1 << 30)
    timeouts = [sim.timeout(10.0 + index) for index in range(1000)]
    for index, timeout in enumerate(timeouts):
        if index % 5 != 0:  # cancel 800 of 1000
            timeout.cancel()
    assert len(sim._queue) == 1000
    assert sim._cancelled_count == 800
    sim.run()
    assert sim.dispatched == 200
    assert not sim._queue


@pytest.mark.parametrize("compact_min", [0, 1 << 30])
def test_degenerate_thresholds_are_behavior_transparent(compact_min):
    """Same churn, same dispatch schedule, at both degenerate settings:
    compaction may only change queue residency, never what runs when."""
    def schedule(sim):
        order = []
        sim.trace_hook = lambda when, event: order.append(
            (when, type(event).__name__))
        sim.run()
        return order

    baseline = _churn_sim(_COMPACT_MIN)
    degenerate = _churn_sim(compact_min)
    assert schedule(degenerate) == schedule(baseline)
    assert degenerate.dispatched == baseline.dispatched
    assert degenerate.now == baseline.now


def test_steady_state_churn_allocation_is_flat():
    """Allocation regression guard: running the churn must not grow
    memory with the number of dispatched events.  A dispatched entry
    and its event are garbage at once; the only residue is the lost
    races' cancelled deadline entries, each waiting in the heap for its
    expiry (a bounded window, not a function of run length) — measured peak
    above the built simulation is ~14 KB regardless of run length;
    64 KB is the alarm line."""
    # warm allocator/caches outside the measured window
    warm = _churn_sim(_COMPACT_MIN, pairs=5, msgs=50)
    warm.run()

    peaks = {}
    for msgs in (200, 800):
        tracemalloc.start()
        sim = _churn_sim(_COMPACT_MIN, pairs=10, msgs=msgs)
        built = tracemalloc.get_traced_memory()[0]
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sim.dispatched == 2 * 10 * msgs  # starts are not events
        peaks[msgs] = peak - built
        assert peaks[msgs] < 64 * 1024, (
            f"churn of {msgs} msgs/pair peaked {peaks[msgs]} bytes "
            f"above the built simulation"
        )
    # the 4x longer run must not allocate proportionally more: flat
    # within 2x covers allocator noise while catching any O(events) leak
    assert peaks[800] < 2 * max(peaks[200], 4096), peaks
