"""Unit tests for per-link transport perturbations (the grey-failure
knobs behind the nemesis: grey loss, delay surges, duplication storms)."""

import random

import pytest

from repro.net import (
    CommGraph,
    FailureInjector,
    FixedLatency,
    Message,
    Network,
    apply_schedule,
)
from repro.sim import Simulator
from tests.net.routes import on_every_route


def build(n=3):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    inboxes = {p: [] for p in graph.nodes}
    for p in graph.nodes:
        net.register(p, lambda m, box=inboxes[p]: box.append(m))
    return sim, graph, net, inboxes


def test_grey_loss_affects_only_its_direction():
    sim, _, net, inboxes = build()
    net.set_grey_loss(1, 2, 0.99)
    for _ in range(20):
        net.send(Message(src=1, dst=2, kind="ping"))
        net.send(Message(src=2, dst=1, kind="pong"))
    sim.run()
    assert len(inboxes[2]) == 20 - net.stats.dropped_lost
    assert net.stats.dropped_lost >= 15
    assert len(inboxes[1]) == 20  # the reverse route is untouched


def test_grey_loss_clears():
    sim, _, net, inboxes = build()
    net.set_grey_loss(1, 2, 0.99)
    net.clear_grey_loss(1, 2)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert len(inboxes[2]) == 1
    assert net.stats.dropped_lost == 0


def test_grey_loss_validation():
    _, _, net, _ = build()
    with pytest.raises(ValueError):
        net.set_grey_loss(1, 2, 1.5)


def test_delay_surge_stretches_latency():
    sim, _, net, inboxes = build()
    net.set_delay_surge(1, 2, 4.0)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert sim.now == pytest.approx(4.0)
    assert len(inboxes[2]) == 1
    assert net.stats.surged == 1
    assert net.stats.delivered == 1


def test_delay_surge_other_direction_unaffected():
    sim, _, net, inboxes = build()
    net.set_delay_surge(1, 2, 4.0)
    net.send(Message(src=2, dst=1, kind="pong"))
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert net.stats.surged == 0
    assert len(inboxes[1]) == 1


def test_delay_surge_clears():
    sim, _, net, _ = build()
    net.set_delay_surge(1, 2, 4.0)
    net.clear_delay_surge(1, 2)
    net.send(Message(src=1, dst=2, kind="ping"))
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_delay_surge_validation():
    _, _, net, _ = build()
    with pytest.raises(ValueError):
        net.set_delay_surge(1, 2, 0.5)


def test_dup_storm_duplicates_per_link():
    sim, _, net, inboxes = build()
    net.set_dup_storm(1, 2, 0.99)
    net.send(Message(src=1, dst=2, kind="ping"))
    net.send(Message(src=2, dst=1, kind="pong"))
    sim.run()
    assert len(inboxes[2]) == 1 + net.stats.duplicated
    assert net.stats.duplicated == 1  # seeded rng: the 0.99 draw hits
    assert len(inboxes[1]) == 1


def perturbed_links(net):
    """Routes carrying any perturbation, read off the per-route tables."""
    return set(net._link_loss) | set(net._link_surge) | set(net._link_dup)


def test_perturbed_links_lists_active_entries():
    _, _, net, _ = build()
    assert perturbed_links(net) == set()
    net.set_grey_loss(1, 2, 0.5)
    net.set_delay_surge(2, 3, 3.0)
    net.set_dup_storm(3, 1, 0.4)
    assert sorted(perturbed_links(net)) == [(1, 2), (2, 3), (3, 1)]
    net.clear_grey_loss(1, 2)
    net.clear_delay_surge(2, 3)
    net.clear_dup_storm(3, 1)
    assert perturbed_links(net) == set()


def test_default_transmit_path_unchanged_without_perturbations():
    """No perturbation entries: delivery times and stats are exactly
    the unperturbed transport's (the trace-identity guarantee)."""
    def run(perturb):
        sim, _, net, inboxes = build()
        if perturb:
            net.set_delay_surge(1, 3, 2.0)
            net.clear_delay_surge(1, 3)
        net.send(Message(src=1, dst=2, kind="ping"))
        sim.run()
        return sim.now, len(inboxes[2]), net.stats.snapshot()

    assert run(False) == run(True)


def test_a_self_addressed_message_takes_no_perturbation():
    """A route joins two distinct processors: with every route grey,
    storming and surging, each message a processor sends itself is
    delivered exactly once, one plain latency later."""
    sim, graph, net, _ = build()
    arrivals = []
    for pid in graph.nodes:
        net.register(pid, lambda m, pid=pid: arrivals.append(
            (pid, m.src, sim.now)))
    pids = sorted(graph.nodes)
    apply_schedule(FailureInjector(sim, graph, network=net), [
        *on_every_route(pids, "grey", 0.99),
        *on_every_route(pids, "dup", 0.99),
        *on_every_route(pids, "surge", 8.0)])
    sim.run(until=1.0)
    assert len(perturbed_links(net)) == 6
    for _ in range(20):
        for pid in pids:
            net.send(Message(src=pid, dst=pid, kind="self"))
    sim.run()
    assert sorted(arrivals) == [(pid, pid, 2.0) for pid in pids
                                for _ in range(20)]
    assert net.stats.delivered == net.stats.sent == 60
    assert (net.stats.dropped_lost, net.stats.duplicated,
            net.stats.surged) == (0, 0, 0)
