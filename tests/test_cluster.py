"""Unit tests for the public Cluster builder API."""

import pytest

from repro import Cluster, CopyOrder, ProtocolConfig, is_cp_serializable
from repro.net import UniformLatency


def test_processor_count_constructor():
    cluster = Cluster(processors=3)
    assert cluster.pids == [1, 2, 3]


def test_explicit_pid_list():
    cluster = Cluster(processors=[7, 3, 9])
    assert cluster.pids == [3, 7, 9]


def test_empty_processor_set_rejected():
    with pytest.raises(ValueError):
        Cluster(processors=[])


def test_delta_must_cover_latency_bound():
    with pytest.raises(ValueError):
        Cluster(processors=3, latency=UniformLatency(0.5, 2.0),
                config=ProtocolConfig(delta=1.0))


def test_config_defaults_derive_from_latency():
    cluster = Cluster(processors=3, latency=UniformLatency(0.5, 2.0))
    assert cluster.config.delta == 2.0


def test_place_creates_copies_with_initial_value():
    cluster = Cluster(processors=3)
    cluster.place("x", holders=[1, 3], initial=42)
    assert cluster.processor(1).store.peek("x")[0] == 42
    assert cluster.processor(3).store.peek("x")[0] == 42
    assert not cluster.processor(2).store.holds("x")


def test_double_start_rejected():
    cluster = Cluster(processors=3)
    cluster.start()
    with pytest.raises(RuntimeError):
        cluster.start()


def test_read_write_once_helpers():
    cluster = Cluster(processors=3, seed=4)
    cluster.place("x", holders=[1, 2, 3], initial="before")
    cluster.start()
    write = cluster.write_once(1, "x", "after")
    cluster.sim.run(until=write)
    read = cluster.read_once(2, "x")
    cluster.sim.run(until=read)
    assert write.value == (True, "after")
    assert read.value == (True, "after")


def test_one_stats_object_per_subsystem():
    cluster = Cluster(processors=3, seed=4, directory="cached")
    sources = cluster.registry.sources
    assert cluster.network.stats is sources["msg"]
    assert cluster.metrics is sources["protocol"]
    for pid in cluster.pids:
        processor = cluster.processor(pid)
        protocol = cluster.protocol(pid)
        assert processor.transport is sources["transport"]
        assert processor.store.stats is sources["storage"]
        assert protocol.metrics is cluster.metrics
        assert protocol.commit.metrics is cluster.metrics
        assert cluster.directories[pid].stats is sources["directory"]
    sessions = [cluster.session(pid, cache_capacity=2, lease_duration=5.0)
                for pid in (1, 2, 1)]
    for session in sessions:
        assert session.stats is sources["client"]
        assert session.cache.stats is sources["client.cache"]
        assert session.lease_table.stats is sources["client.lease"]


def test_no_count_is_lost_to_the_wiring():
    # the protocols journal their first durable cells while the cluster
    # builds them: the engines must share the one StorageStats by then
    cluster = Cluster(processors=3, seed=4)
    journalled = sum(len(cluster.processor(pid).store.wal)
                     for pid in cluster.pids)
    assert cluster.registry.sources["storage"].wal_appends == journalled > 0


def test_registry_is_live_without_run_experiment():
    cluster = Cluster(processors=3, seed=4)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    for pid in (1, 2, 3):
        done = cluster.read_once(pid, "x")
        cluster.sim.run(until=done)
    snapshot = cluster.registry.snapshot()
    assert snapshot["gauges"]["protocol.logical_reads"] == 3
    assert snapshot["gauges"]["protocol.local_reads"] == 3
    assert snapshot["counters"]["msg.sent"] == cluster.network.stats.sent > 0
    done = cluster.write_once(1, "x", 1)
    cluster.sim.run(until=done)
    later = cluster.registry.snapshot()
    assert later["gauges"]["protocol.logical_writes"] == 1
    assert later["counters"]["msg.sent"] > snapshot["counters"]["msg.sent"]


def test_submit_returns_process_with_outcome():
    cluster = Cluster(processors=3, seed=4)
    cluster.place("x", holders=[1, 2, 3], initial=5)
    cluster.start()

    def body(txn):
        value = yield from txn.read("x")
        return value * 2

    outcome = cluster.submit(1, body)
    cluster.sim.run(until=outcome)
    assert outcome.value == (True, 10)


def test_checkers_accessible_from_cluster():
    cluster = Cluster(processors=3, seed=4)
    copies = CopyOrder(cluster.history)  # the CP check's own reader
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    done = cluster.write_once(1, "x", 1)
    cluster.sim.run(until=done)
    assert cluster.check_one_copy_serializable() is True
    assert is_cp_serializable(copies) is True


def test_repr_mentions_protocol():
    cluster = Cluster(processors=3)
    assert "virtual-partitions" in repr(cluster)


def test_bootstrap_false_leaves_singletons():
    cluster = Cluster(processors=3)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start(bootstrap=False)
    views = {frozenset(cluster.protocol(p).view) for p in cluster.pids}
    assert views == {frozenset({1}), frozenset({2}), frozenset({3})}
