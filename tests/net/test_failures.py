"""Unit tests for failure injection."""

from math import inf

import pytest

from repro.net import CommGraph, FailureInjector, FaultAction, apply_schedule
from repro.sim import Simulator


class FakeProcessor:
    def __init__(self):
        self.events = []

    def crash(self):
        self.events.append("crash")

    def recover(self):
        self.events.append("recover")


def test_scripted_crash_and_recover():
    sim = Simulator()
    graph = CommGraph([1, 2, 3])
    proc = FakeProcessor()
    injector = FailureInjector(sim, graph, {2: proc})
    apply_schedule(injector, [FaultAction(5.0, "crash", (2,), 5.0)])

    sim.run(until=7.0)
    assert not graph.has_edge(2, 2)
    assert proc.events == ["crash"]

    sim.run(until=12.0)
    assert graph.has_edge(2, 2)
    assert proc.events == ["crash", "recover"]
    assert [label for _, label in injector.log] == ["crash(2)", "recover(2)"]


def test_scripted_link_cut_and_heal():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [FaultAction(1.0, "cut", (1, 2), 1.0)])
    sim.run(until=1.5)
    assert not graph.has_edge(1, 2)
    sim.run(until=3.0)
    assert graph.has_edge(1, 2)


def test_scripted_partition_sequence():
    """A re-partition: the first partition's hold ends where the second
    starts, and the second's undo heals the lot."""
    sim = Simulator()
    graph = CommGraph([1, 2, 3, 4])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [
        FaultAction(1.0, "partition", ((1, 2), (3, 4)), 1.0),
        FaultAction(2.0, "partition", ((2, 3), (1, 4)), 1.0),
    ])
    sim.run(until=1.5)
    assert sorted(map(sorted, graph.clusters())) == [[1, 2], [3, 4]]
    sim.run(until=2.5)
    assert sorted(map(sorted, graph.clusters())) == [[1, 4], [2, 3]]
    sim.run(until=3.5)
    assert graph.clusters() == [{1, 2, 3, 4}]
    assert [label for _, label in injector.log] == [
        "partition([[1, 2], [3, 4]])", "partition-end",
        "partition([[2, 3], [1, 4]])", "partition-end"]


def test_a_repartition_leaves_exactly_the_second_partitions_cuts():
    """Whichever of the first partition's undo and the second's do runs
    first in their shared instant, the cut set afterwards is the second
    partition's inter-block pairs — no more, no fewer."""
    second = ((2, 3), (1, 4))
    for order in ("undo-first", "do-first"):
        sim = Simulator()
        graph = CommGraph([1, 2, 3, 4])
        injector = FailureInjector(sim, graph)
        (undo,) = apply_schedule(injector, [
            FaultAction(1.0, "partition", ((1, 2), (3, 4)), inf)])
        if order == "undo-first":
            injector.at(2.0, *undo)
        apply_schedule(injector, [FaultAction(2.0, "partition", second, inf)])
        if order == "do-first":
            injector.at(2.0, *undo)
        sim.run(until=3.0)
        cut = {frozenset((a, b)) for a in graph.nodes for b in graph.nodes
               if a < b and not graph.has_edge(a, b)}
        assert cut == {frozenset((a, b)) for a in second[0]
                       for b in second[1]}, order


def test_past_time_rejected():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        apply_schedule(injector, [FaultAction(1.0, "crash", (1,), inf)])


def test_at_accepts_now():
    """The boundary case: ``time == sim.now`` is a valid schedule and
    fires on the next kernel step, not a rejected past time."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    # must not raise
    apply_schedule(injector, [FaultAction(sim.now, "crash", (1,), inf)])
    assert graph.has_edge(1, 1)        # not applied synchronously
    sim.run()
    assert not graph.has_edge(1, 1)
    assert injector.log == [(5.0, "crash(1)")]


def test_at_zero_at_boot():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [FaultAction(0.0, "cut", (1, 2), inf)])
    sim.run()
    assert not graph.has_edge(1, 2)


# -- permanent faults and observed ends ----------------------------------------


def test_an_infinite_hold_is_never_undone():
    sim = Simulator()
    graph = CommGraph([1, 2, 3])
    proc = FakeProcessor()
    injector = FailureInjector(sim, graph, {3: proc})
    apply_schedule(injector, [
        FaultAction(1.0, "crash", (3,), inf),
        FaultAction(1.0, "cut", (1, 2), inf),
        FaultAction(1.0, "partition", ((1,), (2, 3)), inf),
    ])
    sim.run()  # nothing is left on the queue to undo them
    assert sim.now == 1.0
    assert proc.events == ["crash"]
    assert not graph.has_edge(1, 2) and not graph.has_edge(3, 3)
    assert [label for _, label in injector.log] == [
        "crash(3)", "cut(1,2)", "partition([[1], [2, 3]])"]


def test_an_observed_end_is_the_actions_own_undo():
    """A fault whose end is learned mid-run: applied with an infinite
    hold, ended by scheduling the undo ``apply_schedule`` returned —
    which releases only that action's claim."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    (undo,) = apply_schedule(injector, [FaultAction(1.0, "cut", (1, 2), inf)])
    apply_schedule(injector, [FaultAction(2.0, "cut", (1, 2), 4.0)])
    sim.run(until=3.0)
    injector.at(4.0, *undo)  # the end, learned at t=3
    sim.run(until=5.0)
    assert not graph.has_edge(1, 2)  # the second cut still holds it
    sim.run(until=7.0)
    assert graph.has_edge(1, 2)
    assert [label for _, label in injector.log] == [
        "cut(1,2)", "cut(1,2)", "heal(1,2)", "heal(1,2)"]


# -- ownership claims: concurrent fault actions --------------------------------


def test_claims_are_unique_across_apply_schedule_calls():
    """Regression: actor ids were numbered per ``apply_schedule`` call,
    so two calls on one injector shared ``nemesis#0`` and the shorter
    cut's undo healed a link the longer one still held down."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [FaultAction(1.0, "cut", (1, 2), 10.0)])
    apply_schedule(injector, [FaultAction(2.0, "cut", (1, 2), 2.0)])
    sim.run(until=5.0)
    assert not graph.has_edge(1, 2)
    sim.run(until=12.0)
    assert graph.has_edge(1, 2)


# -- edge cases ---------------------------------------------------------------


def test_recover_never_crashed_pid_is_harmless():
    """A crash's undo scheduled before the crash itself: the recover of
    a pid nobody crashed is a no-op the processor tolerates."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    proc = FakeProcessor()
    injector = FailureInjector(sim, graph, {1: proc})
    (undo,) = apply_schedule(injector, [FaultAction(5.0, "crash", (1,), inf)])
    injector.at(1.0, *undo)
    sim.run(until=2.0)
    assert graph.has_edge(1, 1)
    assert proc.events == ["recover"]  # processors tolerate spurious recover


def test_overlapping_cuts_heal_with_the_last_undo():
    """Two actions cutting one link: the link comes back only when the
    last of them lets go."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [FaultAction(1.0, "cut", (1, 2), 2.0),
                              FaultAction(2.0, "cut", (1, 2), 2.0)])
    sim.run(until=3.5)
    assert not graph.has_edge(1, 2)
    sim.run(until=4.5)
    assert graph.has_edge(1, 2)
