"""Unit tests for the nemesis: fault-schedule planning and application."""

import json
import random
from pathlib import Path

import pytest

from repro.net import (
    CommGraph,
    FailureInjector,
    FaultAction,
    FixedLatency,
    NemesisMix,
    Network,
    apply_schedule,
    plan_crash_repair,
    plan_nemesis,
)
from repro.net.nemesis import KINDS
from repro.sim import Simulator
from tests.sim.schedule import live_entries

#: ``injector.log`` of the online process-per-element crash/repair
#: generator ``plan_crash_repair`` replaced, captured at the last
#: commit that had it
ONLINE_LOG = Path(__file__).parent / "fixtures" / "random-failures-log.json"


def build(pids=(1, 2), network=False):
    sim = Simulator()
    graph = CommGraph(pids)
    net = (Network(sim, graph, FixedLatency(1.0), random.Random(1))
           if network else None)
    return sim, graph, net, FailureInjector(sim, graph, network=net)


def test_crash_repair_plan_replays_the_online_process():
    """Instant for instant and float for float: the plan makes the
    shared-rng draws in the order the per-element processes did."""
    recorded = json.loads(ONLINE_LOG.read_text())
    params = dict(recorded["params"])
    rng = random.Random(params.pop("seed"))
    pids = params.pop("pids")
    sim, graph, _, injector = build(pids)
    apply_schedule(injector, plan_crash_repair(rng, pids, **params))
    sim.run(until=400.0)
    assert [[t, "random-" + label]
            for t, label in injector.log] == recorded["log"]
    assert all(graph.has_edge(p, p) for p in pids)
    assert graph.clusters() == [set(pids)]


def test_crash_repair_plan_repairs_every_fault_and_never_overlaps():
    horizon = 200.0
    plan = plan_crash_repair(random.Random(7), [1, 2, 3], node_mttf=10.0,
                             node_mttr=2.0, link_mttf=5.0, link_mttr=3.0,
                             horizon=horizon)
    assert {a.kind for a in plan} == {"crash", "cut"}
    assert plan == sorted(plan, key=lambda a: a.time)
    # no fault starts at or after the horizon; a repair may land past it
    assert all(a.time < horizon and 0 <= a.hold < float("inf") for a in plan)
    assert any(a.time + a.hold > horizon for a in plan)
    down_until = {}
    for action in plan:
        element = (action.kind, action.args)
        assert action.time >= down_until.get(element, 0.0)
        down_until[element] = action.time + action.hold


def test_crash_repair_plan_classes_switch_off_at_zero_mttf():
    plan = plan_crash_repair(random.Random(3), [1, 2, 3], link_mttf=5.0,
                             link_mttr=1.0, horizon=100.0)
    assert plan and {a.kind for a in plan} == {"cut"}
    assert plan_crash_repair(random.Random(3), [1, 2], horizon=100.0) == []


@pytest.mark.parametrize("bad", [
    {"node_mttf": -1.0}, {"node_mttr": -1.0}, {"link_mttf": -1.0},
    {"link_mttr": -1.0}, {"horizon": float("inf")},
])
def test_crash_repair_plan_validation(bad):
    params = {"node_mttf": 5.0, "horizon": 100.0, **bad}
    with pytest.raises(ValueError):
        plan_crash_repair(random.Random(1), [1, 2], **params)


def test_plan_is_deterministic_for_a_seed():
    mix = NemesisMix()
    one = plan_nemesis(random.Random(5), [1, 2, 3, 4], mix, horizon=200)
    two = plan_nemesis(random.Random(5), [1, 2, 3, 4], mix, horizon=200)
    assert one == two
    assert one, "a 200-unit horizon must plan at least one action"


def test_plan_respects_horizon_and_start():
    actions = plan_nemesis(random.Random(1), [1, 2, 3], horizon=100,
                           start=10.0)
    assert all(10.0 <= a.time <= 100.0 for a in actions)
    assert all(a.time + a.hold <= 100.0 + 1e-9 for a in actions)


def test_plan_draws_only_known_kinds():
    actions = plan_nemesis(random.Random(2), [1, 2, 3, 4], horizon=500)
    assert {a.kind for a in actions} <= set(KINDS)


def test_zero_weight_kind_never_planned():
    mix = NemesisMix(crash=0.0, cut=1.0, oneway=0.0, surge=0.0, grey=0.0,
                     dup=0.0, flap=0.0, partition=0.0)
    actions = plan_nemesis(random.Random(3), [1, 2, 3], mix, horizon=500)
    assert actions
    assert {a.kind for a in actions} == {"cut"}


def test_fault_action_dict_round_trip():
    actions = plan_nemesis(random.Random(4), [1, 2, 3, 4], horizon=300)
    for action in actions:
        restored = FaultAction.from_dict(action.to_dict())
        assert restored == action


def test_partition_args_survive_json_round_trip():
    """Partition blocks are nested tuples; JSON turns them into lists
    and from_dict must re-freeze them."""
    import json
    action = FaultAction(time=5.0, kind="partition",
                         args=((1, 2), (3, 4)), hold=10.0)
    wire = json.loads(json.dumps(action.to_dict()))
    assert FaultAction.from_dict(wire) == action


def test_apply_schedule_cut_and_undo():
    sim = Simulator()
    graph = CommGraph([1, 2, 3])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [
        FaultAction(time=1.0, kind="cut", args=(1, 2), hold=2.0),
    ])
    sim.run(until=1.5)
    assert not graph.has_edge(1, 2)
    sim.run(until=4.0)
    assert graph.has_edge(1, 2)


def test_apply_schedule_partition_is_composable():
    """A partition is pairwise inter-block cuts under its own actor, so
    undoing it never clobbers another action's cut."""
    sim = Simulator()
    graph = CommGraph([1, 2, 3, 4])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [
        FaultAction(time=0.0, kind="cut", args=(1, 3), hold=float("inf")),
        FaultAction(time=1.0, kind="partition", args=((1, 2), (3, 4)),
                    hold=2.0),
    ])
    sim.run(until=1.5)
    assert sorted(map(sorted, graph.clusters())) == [[1, 2], [3, 4]]
    sim.run(until=5.0)
    assert not graph.has_edge(1, 3), "the other cut must survive the undo"
    assert graph.has_edge(1, 4) and graph.has_edge(2, 3)


def test_apply_schedule_crash_and_recover():
    sim = Simulator()
    graph = CommGraph([1, 2])
    injector = FailureInjector(sim, graph)
    apply_schedule(injector, [
        FaultAction(time=1.0, kind="crash", args=(2,), hold=3.0),
    ])
    sim.run(until=2.0)
    assert not graph.has_edge(2, 2)
    sim.run(until=5.0)
    assert graph.has_edge(2, 2)


def test_apply_schedule_oneway_cut_and_undo():
    sim, graph, _, injector = build()
    apply_schedule(injector, [
        FaultAction(time=1.0, kind="oneway", args=(1, 2), hold=1.0),
    ])
    sim.run(until=1.5)
    assert not graph.can_send(1, 2)
    assert graph.can_send(2, 1)
    sim.run(until=3.0)
    assert graph.can_send(1, 2)
    assert [label for _, label in injector.log] == [
        "cut-oneway(1,2)", "heal-oneway(1,2)"]


def test_apply_schedule_flap():
    sim, graph, _, injector = build()
    apply_schedule(injector, [
        FaultAction(time=1.0, kind="flap", args=(1, 2, 1.0, 2), hold=0.0),
    ])
    for until, up in ((1.5, False), (2.5, True), (3.5, False), (5.0, True)):
        sim.run(until=until)
        assert graph.has_edge(1, 2) is up
    assert [label for _, label in injector.log] == [
        "flap-cut(1,2)", "flap-heal(1,2)"] * 2


@pytest.mark.parametrize("kind, value, table", [
    ("surge", 4.0, "_link_surge"),
    ("grey", 0.5, "_link_loss"),
    ("dup", 0.3, "_link_dup"),
])
def test_apply_schedule_transport_perturbation_and_undo(kind, value, table):
    sim, _, net, injector = build(network=True)
    apply_schedule(injector, [
        FaultAction(time=1.0, kind=kind, args=(1, 2, value), hold=2.0),
    ])
    sim.run(until=2.0)
    assert getattr(net, table) == {(1, 2): value}
    sim.run(until=4.0)
    assert getattr(net, table) == {}


@pytest.mark.parametrize("kind", ["surge", "grey", "dup"])
def test_transport_actions_require_network(kind):
    sim, _, _, injector = build()
    with pytest.raises(RuntimeError):
        apply_schedule(injector, [
            FaultAction(time=1.0, kind=kind, args=(1, 2, 0.5), hold=1.0),
        ])
    assert live_entries(sim) == []


@pytest.mark.parametrize("bad", [
    FaultAction(time=1.0, kind="meteor", args=(), hold=1.0),
    FaultAction(time=1.0, kind="crash", args=(1, 2), hold=1.0),
    FaultAction(time=1.0, kind="cut", args=(1,), hold=1.0),
    FaultAction(time=1.0, kind="grey", args=(1, 2), hold=1.0),
    FaultAction(time=1.0, kind="partition", args=(1, 2), hold=1.0),
    FaultAction(time=1.0, kind="flap", args=(1, 2, 0.0, 1), hold=1.0),
    FaultAction(time=1.0, kind="flap", args=(1, 2, 1.0, 0), hold=1.0),
    FaultAction(time=1.0, kind="flap", args=(1, 2, 1.0, 1.5), hold=1.0),
    FaultAction(time=1.0, kind="cut", args=(1, 2), hold=-1.0),
    FaultAction(time=1.0, kind="cut", args=(1, 2), hold=float("nan")),
    FaultAction(time=-1.0, kind="cut", args=(1, 2), hold=1.0),
    FaultAction(time=1.0, kind="crash", args=(9,), hold=1.0),
    FaultAction(time=1.0, kind="oneway", args=(1, 9), hold=1.0),
    FaultAction(time=1.0, kind="partition", args=((1, 2), (9,)), hold=1.0),
    FaultAction(time=1.0, kind="cut", args=(1, 1), hold=1.0),
    FaultAction(time=1.0, kind="surge", args=(2, 2, 2.0), hold=1.0),
    FaultAction(time=1.0, kind="flap", args=(3, 3, 1.0, 1), hold=1.0),
    FaultAction(time=1.0, kind="partition", args=((1, 2), (2, 3)), hold=1.0),
    FaultAction(time=1.0, kind="partition", args=((1, 2),), hold=1.0),
    FaultAction(time=1.0, kind="partition", args=((1, 2, 3), ()), hold=1.0),
])
def test_apply_schedule_rejects_a_malformed_action_whole(bad):
    """A schedule can come from an artifact file: one bad action fails
    the lot, and nothing of it reaches the kernel's queue — not even
    one that would raise only at its instant (an unknown pid, a
    self-edge, overlapping blocks) or one that would silently cut
    nothing (a one-block partition)."""
    sim, _, _, injector = build(pids=(1, 2, 3), network=True)
    good = FaultAction(time=1.0, kind="cut", args=(1, 2), hold=2.0)
    with pytest.raises(ValueError):
        apply_schedule(injector, [good, bad])
    assert live_entries(sim) == []


def test_mix_weights_complete():
    assert set(NemesisMix().weights()) == set(KINDS)
