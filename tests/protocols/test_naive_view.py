"""Unit tests for the naive-view strawman protocol."""

from math import inf

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import NaiveViewProtocol, protocol_factory


def build(n=3, seed=1):
    cluster = Cluster(processors=n, seed=seed, protocol=NaiveViewProtocol)
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


def test_view_starts_full():
    cluster = build()
    assert cluster.protocol(1).view == {1, 2, 3}


def test_refresh_view_is_closed_neighbourhood():
    cluster = build()
    cluster.graph.cut_link(1, 2)
    for pid in cluster.pids:
        cluster.protocol(pid).refresh_view()
    assert cluster.protocol(1).view == {1, 3}
    assert cluster.protocol(2).view == {2, 3}
    assert cluster.protocol(3).view == {1, 2, 3}  # C still sees both


def test_auto_refresh_follows_topology():
    cluster = build()
    apply_schedule(cluster.injector,
                   [FaultAction(5.0, "partition", ((1,), (2, 3)), inf)])
    cluster.run(until=5.0 + 2 * cluster.config.pi)
    assert cluster.protocol(1).view == {1}
    assert cluster.protocol(2).view == {2, 3}


def test_auto_refresh_can_be_disabled():
    cluster = build()
    cluster.protocol(1).auto_refresh = False
    apply_schedule(cluster.injector,
                   [FaultAction(5.0, "partition", ((1,), (2, 3)), inf)])
    cluster.run(until=5.0 + 3 * cluster.config.pi)
    assert cluster.protocol(1).view == {1, 2, 3}  # stale on purpose


def test_majority_gate_on_local_view():
    cluster = build()
    cluster.protocol(1).auto_refresh = False
    cluster.protocol(1).view = {1}
    read = cluster.read_once(1, "x")
    cluster.run(until=30.0)
    assert read.value == (False, "inaccessible")


def test_write_targets_view_intersection():
    """The naive protocol writes only the in-view copies — the root of
    Example 1's anomaly."""
    cluster = build()
    cluster.graph.cut_link(1, 2)
    for pid in cluster.pids:
        cluster.protocol(pid).refresh_view()
    write = cluster.write_once(1, "x", 5)
    cluster.run(until=30.0)
    assert write.value == (True, 5)
    assert cluster.processor(1).store.peek("x")[0] == 5
    assert cluster.processor(3).store.peek("x")[0] == 5
    assert cluster.processor(2).store.peek("x")[0] == 0  # missed


def test_healthy_cluster_behaves_correctly():
    cluster = build(seed=5)

    def increment(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value

    for pid in (1, 2, 3):
        cluster.submit(pid, increment)
        cluster.run(until=cluster.sim.now + 25.0)
    assert cluster.processor(2).store.peek("x")[0] == 3
    assert cluster.check_one_copy_serializable()


def test_protocol_factory_registry():
    import pytest

    assert protocol_factory("naive-view") is NaiveViewProtocol
    from repro.core.protocol import VirtualPartitionProtocol
    assert protocol_factory("virtual-partitions") is VirtualPartitionProtocol
    with pytest.raises(KeyError):
        protocol_factory("paxos")
