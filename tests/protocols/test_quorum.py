"""Unit tests for Gifford weighted voting."""

from math import inf

import pytest

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import MajorityProtocol, QuorumProtocol


def build(n=5, holders=None, seed=1):
    cluster = Cluster(processors=n, seed=seed, protocol=QuorumProtocol)
    cluster.place("x", holders=holders or list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


def test_default_thresholds_majority_pair():
    cluster = build(5)
    protocol = cluster.protocol(1)
    r, w = protocol.thresholds("x")
    assert w == 3 and r == 3
    assert r + w > protocol.total_votes("x")


def test_weighted_thresholds():
    cluster = Cluster(processors=3, seed=1, protocol=QuorumProtocol)
    cluster.place("x", holders={1: 3, 2: 1, 3: 1}, initial=0)
    cluster.start()
    protocol = cluster.protocol(2)
    r, w = protocol.thresholds("x")
    assert w == 3  # floor(5/2)+1
    assert r == 3
    # p1 alone carries a full write quorum
    assert protocol.vote_weight("x", 1) == 3


def thresholds(protocol, weights):
    cluster = Cluster(processors=9, seed=1, protocol=protocol)
    cluster.place("x", holders=weights, initial=0)
    return cluster.protocol(1).thresholds("x")


@pytest.mark.parametrize("total", range(1, 10))
@pytest.mark.parametrize("shape", ["uniform", "skewed"])
def test_classic_pair_intersects(total, shape):
    if shape == "uniform":
        weights = {p: 1 for p in range(1, total + 1)}
    else:
        weights = {p: w for p, w in ((1, total - total // 3), (2, total // 3))
                   if w}
    r, w = thresholds(QuorumProtocol, weights)
    assert r + w > total  # every read quorum meets every write quorum
    assert 2 * w > total  # any two write quorums meet


@pytest.mark.parametrize("total", range(1, 10))
def test_majority_differs_from_quorum_on_even_copy_counts(total):
    weights = {p: 1 for p in range(1, total + 1)}
    quorum = thresholds(QuorumProtocol, weights)
    majority = thresholds(MajorityProtocol, weights)
    assert (quorum != majority) == (total % 2 == 0)
    if total == 4:  # E18's four fully replicated processors
        assert (quorum, majority) == ((2, 3), (3, 3))


def test_read_returns_highest_version():
    cluster = build(5)
    cluster.write_once(1, "x", "v1")
    cluster.run(until=30.0)
    cluster.write_once(2, "x", "v2")
    cluster.run(until=60.0)
    read = cluster.read_once(3, "x")
    cluster.run(until=90.0)
    assert read.value == (True, "v2")


def test_write_after_read_skips_version_round():
    cluster = build(5)

    def body(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value if value else "w")
        return value

    out = cluster.submit(1, body)
    cluster.run(until=60.0)
    assert out.value[0] is True
    assert cluster.metrics.version_collect_rpcs == 0


def test_blind_write_pays_version_round():
    cluster = build(5)
    out = cluster.write_once(1, "x", "blind")
    cluster.run(until=60.0)
    assert out.value[0] is True
    assert cluster.metrics.version_collect_rpcs == 3


def test_survives_minority_crash():
    cluster = build(5)
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (4,), inf),
                                      FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    write = cluster.write_once(1, "x", 42)
    cluster.run(until=80.0)
    assert write.value == (True, 42)
    read = cluster.read_once(2, "x")
    cluster.run(until=160.0)
    assert read.value == (True, 42)


def test_majority_crash_blocks_access():
    cluster = build(5)
    for pid in (3, 4, 5):
        apply_schedule(cluster.injector,
                       [FaultAction(5.0, "crash", (pid,), inf)])
    cluster.run(until=10.0)
    write = cluster.write_once(1, "x", 42)
    cluster.run(until=200.0)
    assert write.value[0] is False


def test_recovered_copy_catches_up_via_version_rule():
    """A stale copy rejoining simply loses version races; reads keep
    returning the newest value because quorums intersect."""
    cluster = build(5)
    (recover,) = apply_schedule(cluster.injector,
                                [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    cluster.write_once(1, "x", "during-crash")
    cluster.run(until=60.0)
    cluster.injector.at(61.0, *recover)
    cluster.run(until=70.0)
    read = cluster.read_once(5, "x")
    cluster.run(until=140.0)
    assert read.value == (True, "during-crash")


def test_history_is_one_copy_serializable():
    cluster = build(5)
    for pid, value in [(1, "a"), (2, "b"), (3, "c")]:
        cluster.write_once(pid, "x", value)
        cluster.run(until=cluster.sim.now + 30.0)
    reads = [cluster.read_once(p, "x") for p in (4, 5)]
    cluster.run(until=cluster.sim.now + 60.0)
    assert all(r.value[0] for r in reads)
    assert cluster.check_one_copy_serializable()


def test_availability_predicate_uses_reachability():
    cluster = build(5)
    cluster.graph.partition([{1, 2, 3}, {4, 5}])
    assert cluster.protocol(1).available("x", write=True)
    assert not cluster.protocol(4).available("x", write=True)
    assert not cluster.protocol(4).available("x", write=False)
