"""Integration: sharded topologies end-to-end through the cluster,
the directory, and the experiment runner."""

import dataclasses

import pytest

from repro import Cluster
from repro.shard import HomeFirstPools, object_names, primary_of
from repro.shard.policy import make_policy
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment


def test_cluster_shard_places_every_object():
    cluster = Cluster(processors=8, seed=1)
    cluster.shard("hash-ring", object_names(40), degree=3, initial=0)
    assert len(cluster.placement.objects) == 40
    for obj in cluster.placement.objects:
        holders = cluster.placement.copies(obj)
        assert len(holders) == 3
        for pid in holders:
            value, _date = cluster.processors[pid].store.peek(obj)
            assert value == 0


def test_cluster_place_rejects_non_members():
    cluster = Cluster(processors=3, seed=1)
    with pytest.raises(ValueError, match="not cluster members"):
        cluster.place("x", holders=[1, 2, 9])


def test_cluster_place_many_is_all_or_nothing():
    cluster = Cluster(processors=3, seed=1)
    with pytest.raises(ValueError, match="invalid placement"):
        cluster.place_many({"good": [1, 2], "bad": [99]})
    assert cluster.placement.objects == set()  # nothing half-installed


def test_cross_shard_transaction_commits():
    """A transaction spanning two disjoint shards routes through the
    directory and commits via 2PC across both holder sets."""
    cluster = Cluster(processors=6, seed=2)
    cluster.place_many({"left": [1, 2], "right": [4, 5]}, initial=0)
    cluster.start()

    def body(txn):
        value = yield from txn.read("left")
        yield from txn.write("right", value + 1)
        return value

    outcome = cluster.submit(1, body)
    cluster.run(until=80.0)
    committed, value = outcome.value
    assert committed and value == 0
    for pid in (4, 5):
        stored, _date = cluster.processors[pid].store.peek("right")
        assert stored == 1
    assert cluster.check_one_copy_serializable()
    routed = cluster.registry.sources["transport"].routed_fanouts
    assert routed >= 1  # the write went through the directory


def _spec(**overrides):
    base = dict(
        processors=8, objects=64, copies_per_object=3, seed=5,
        duration=200.0, clients=1, txns_per_client=5, check=True,
        audit=True, placement="hash-ring",
        workload=WorkloadSpec(zipf_s=1.1, ops_per_txn=2),
        objects_for=HomeFirstPools("hash-ring", 8, 64, 3),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_sharded_experiment_is_clean():
    result = run_experiment(_spec())
    assert result.committed == 40
    assert result.one_copy_ok is True
    assert result.audit_violations == ()
    snapshot = result.registry.snapshot()
    assert snapshot["counters"]["directory.lookups"] > 0
    assert snapshot["counters"]["transport.routed_fanouts"] > 0


def test_cached_directory_is_timing_transparent():
    """A bounded directory cache must only change the lookup *counters*,
    never the simulated execution: misses consult the authority at zero
    model time, so the run is event-for-event identical."""
    local = run_experiment(_spec(directory=None))
    cached = run_experiment(_spec(directory="cached",
                                  directory_capacity=8))
    assert cached.committed == local.committed
    assert cached.aborted == local.aborted
    assert cached.network == local.network
    assert cached.events_dispatched == local.events_dispatched
    assert dataclasses.asdict(cached.metrics) == \
        dataclasses.asdict(local.metrics)
    misses = cached.registry.snapshot()["counters"]["directory.misses"]
    assert misses > 0  # the cache was genuinely exercised


def test_home_first_pools_orders_home_objects_first():
    pools = HomeFirstPools("weighted-home", processors=5, objects=50,
                           degree=3)
    names = object_names(50)
    assignments = make_policy("weighted-home", degree=3).assign(
        names, [1, 2, 3, 4, 5])
    for pid in range(1, 6):
        pool = pools(pid, client=0)
        assert sorted(pool) == sorted(names)  # full keyspace, reordered
        home_count = sum(primary_of(assignments[obj]) == pid
                         for obj in names)
        assert all(primary_of(assignments[obj]) == pid
                   for obj in pool[:home_count])


def test_home_first_pools_survives_pickling():
    import pickle

    pools = HomeFirstPools("hash-ring", 4, 20, 2)
    clone = pickle.loads(pickle.dumps(pools))
    assert clone(2, 0) == pools(2, 0)
