"""Unit tests for failure injection."""

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
    injector.crash_at(5.0, 2)
    injector.recover_at(10.0, 2)

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
    injector.cut_at(1.0, 1, 2)
    injector.heal_at(2.0, 1, 2)
    sim.run(until=1.5)
    assert not graph.has_edge(1, 2)
    sim.run(until=3.0)
    assert graph.has_edge(1, 2)


def test_scripted_partition_sequence():
    sim = Simulator()
    graph = CommGraph([1, 2, 3, 4])
    injector = FailureInjector(sim, graph)
    injector.partition_at(1.0, [{1, 2}, {3, 4}])
    injector.partition_at(2.0, [{2, 3}, {1, 4}])
    injector.heal_all_at(3.0)
    sim.run(until=1.5)
    assert sorted(map(sorted, graph.clusters())) == [[1, 2], [3, 4]]
    sim.run(until=2.5)
    assert sorted(map(sorted, graph.clusters())) == [[1, 4], [2, 3]]
    sim.run(until=3.5)
    assert graph.clusters() == [{1, 2, 3, 4}]


def test_past_time_rejected():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        injector.crash_at(1.0, 1)


def test_at_accepts_now():
    """The boundary case: ``time == sim.now`` is a valid schedule and
    fires on the next kernel step, not a rejected past time."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    injector.crash_at(sim.now, 1)  # must not raise
    assert graph.has_edge(1, 1)        # not applied synchronously
    sim.run()
    assert not graph.has_edge(1, 1)
    assert injector.log == [(5.0, "crash(1)")]


def test_at_zero_at_boot():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    injector.cut_at(0.0, 1, 2)
    sim.run()
    assert not graph.has_edge(1, 2)


# -- ownership claims: concurrent fault actors -------------------------------


def test_planned_heal_must_not_resurrect_scripted_cut():
    """Regression: a generated link-repair used to silently heal a link
    a scripted ``cut_at`` deliberately held down."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    injector.cut_at(1.0, 1, 2)
    injector.heal_at(10.0, 1, 2)
    apply_schedule(injector, [
        FaultAction(time=2.0, kind="cut", args=(1, 2), hold=3.0),
    ])
    sim.run(until=3.0)
    assert not graph.has_edge(1, 2)
    sim.run(until=6.0)               # the planned heal has fired
    assert not graph.has_edge(1, 2)  # script still owns the cut
    sim.run(until=11.0)              # the scripted heal releases it
    assert graph.has_edge(1, 2)


def test_planned_recover_must_not_undo_scripted_crash():
    sim = Simulator()
    graph = CommGraph([1, 2])
    proc = FakeProcessor()
    injector = FailureInjector(sim, graph, {1: proc})
    injector.crash_at(1.0, 1)
    injector.recover_at(10.0, 1)
    apply_schedule(injector, [
        FaultAction(time=2.0, kind="crash", args=(1,), hold=3.0),
    ])
    sim.run(until=6.0)               # the planned recover has fired
    assert not graph.has_edge(1, 1)
    assert "recover" not in proc.events
    sim.run(until=11.0)
    assert graph.has_edge(1, 1)
    assert proc.events == ["crash", "crash", "recover"]


def test_partition_at_rewrites_claims():
    """partition_at stays authoritative: it clears intra-block claims
    (foreign ones included) and owns every inter-block cut."""
    sim = Simulator()
    graph = CommGraph([1, 2, 3, 4])
    injector = FailureInjector(sim, graph)
    injector._cut(1, 2, actor="nemesis#0")
    injector.partition_at(1.0, [{1, 2}, {3, 4}])
    sim.run(until=2.0)
    assert graph.has_edge(1, 2)
    injector._cut(1, 2)      # a scripted cut heals alone: the foreign
    injector._heal(1, 2)     # claim is gone
    assert graph.has_edge(1, 2)
    injector._heal(1, 3, actor="nemesis#0")
    assert not graph.has_edge(1, 3)  # the partition owns its cuts
    injector._heal(1, 3)
    assert graph.has_edge(1, 3)


def test_heal_all_force_clears_link_claims():
    sim = Simulator()
    graph = CommGraph([1, 2, 3])
    injector = FailureInjector(sim, graph)
    injector._cut(1, 2, actor="nemesis#4")
    injector._cut_oneway(2, 3, actor="nemesis#5")
    injector.heal_all_at(1.0)
    sim.run(until=2.0)
    assert graph.has_edge(1, 2)
    assert graph.can_send(2, 3)
    # no claim is left: a scripted cut and heal restore each alone
    injector._cut(1, 2)
    injector._heal(1, 2)
    injector._cut_oneway(2, 3)
    injector._heal_oneway(2, 3)
    assert graph.has_edge(1, 2)
    assert graph.can_send(2, 3)


# -- edge cases ---------------------------------------------------------------


def test_recover_never_crashed_pid_is_harmless():
    sim = Simulator()
    graph = CommGraph([1, 2])
    proc = FakeProcessor()
    injector = FailureInjector(sim, graph, {1: proc})
    injector.recover_at(1.0, 1)
    sim.run(until=2.0)
    assert graph.has_edge(1, 1)
    assert proc.events == ["recover"]  # processors tolerate spurious recover


def test_cut_already_cut_link_needs_single_heal():
    """Cutting twice under one actor is idempotent — one heal restores."""
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    injector.cut_at(1.0, 1, 2)
    injector.cut_at(2.0, 1, 2)
    injector.heal_at(3.0, 1, 2)
    sim.run(until=4.0)
    assert graph.has_edge(1, 2)
