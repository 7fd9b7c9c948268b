"""Integration tests of the virtual partition protocol's lifecycle."""

from dataclasses import replace
from math import inf

from repro import (Cluster, CopyOrder, FaultAction, ProtocolConfig,
                   apply_schedule, is_cp_serializable)

#: the majority | minority split most tests here impose, until healed
SPLIT = FaultAction(5.0, "partition", ((1, 2, 3), (4, 5)), inf)


def make_cluster(n=5, seed=0, **kwargs):
    cluster = Cluster(processors=n, seed=seed, **kwargs)
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    return cluster


def converged(cluster):
    ids = {cluster.protocol(p).current_partition for p in cluster.pids}
    views = {cluster.protocol(p).view for p in cluster.pids}
    return len(ids) == 1 and None not in ids and len(views) == 1


def test_bootstrap_starts_converged():
    cluster = make_cluster()
    cluster.start()
    cluster.run(until=1.0)
    assert converged(cluster)


def test_cold_boot_converges_within_liveness_bound():
    """L1 with Δ = π + 8δ: a stable clique converges within the bound."""
    cluster = make_cluster()
    cluster.start(bootstrap=False)
    cluster.run(until=cluster.config.liveness_bound)
    assert converged(cluster)


def test_converged_partition_is_stable_without_failures():
    cluster = make_cluster()
    cluster.start()
    cluster.run(until=500.0)
    assert converged(cluster)
    assert cluster.metrics.vp_created == 0


def test_partition_splits_views():
    cluster = make_cluster()
    cluster.start()
    apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=5.0 + cluster.config.liveness_bound)
    assert cluster.protocol(1).view == frozenset({1, 2, 3})
    assert cluster.protocol(4).view == frozenset({4, 5})
    majority_id = cluster.protocol(1).current_partition
    minority_id = cluster.protocol(4).current_partition
    assert majority_id is not None and minority_id is not None
    assert majority_id != minority_id


def test_heal_merges_partitions():
    cluster = make_cluster()
    cluster.start()
    apply_schedule(cluster.injector, [replace(SPLIT, hold=55.0)])
    cluster.run(until=60.0 + cluster.config.liveness_bound)
    assert converged(cluster)
    assert cluster.protocol(1).view == frozenset({1, 2, 3, 4, 5})


def test_merged_partition_id_exceeds_both_old_ids():
    """S3: the merged partition must come later in creation order."""
    cluster = make_cluster()
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)
    before = {cluster.protocol(p).current_partition for p in cluster.pids}
    cluster.injector.at(cluster.sim.now + 1.0, *heal)
    cluster.run(until=cluster.sim.now + cluster.config.liveness_bound + 5)
    after = cluster.protocol(1).current_partition
    assert all(after > old for old in before if old is not None)


def test_majority_rule_gates_access():
    cluster = make_cluster()
    cluster.start()
    apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)
    assert cluster.protocol(1).available("x", write=False)
    assert not cluster.protocol(4).available("x", write=False)


def test_minority_writes_abort_majority_writes_commit():
    cluster = make_cluster()
    cluster.start()
    apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)
    good = cluster.write_once(1, "x", 10)
    bad = cluster.write_once(4, "x", 20)
    cluster.run(until=80.0)
    assert good.value == (True, 10)
    assert bad.value[0] is False


def test_r5_recovery_propagates_value_on_merge():
    cluster = make_cluster()
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)
    cluster.write_once(1, "x", 77)
    cluster.run(until=60.0)
    cluster.injector.at(61.0, *heal)
    cluster.run(until=61.0 + cluster.config.liveness_bound + 10)
    for pid in (4, 5):
        value, date = cluster.processor(pid).store.peek("x")
        assert value == 77, f"p{pid} copy not recovered: {value}"
    read = cluster.read_once(4, "x")
    cluster.run(until=cluster.sim.now + 20)
    assert read.value == (True, 77)


def test_reads_use_nearest_copy():
    from repro.net import DistanceLatency, ring_distances
    latency = DistanceLatency(ring_distances([1, 2, 3, 4, 5]), jitter=0.0)
    cluster = Cluster(processors=5, seed=0, latency=latency)
    copies = CopyOrder(cluster.history)
    cluster.place("x", holders=[2, 4], initial=9)
    cluster.start()
    read = cluster.read_once(1, "x")  # p1's nearest holder is p2
    cluster.run(until=20.0)
    assert read.value == (True, 9)
    reads = [op for op in copies.ops if op.kind == "r"]
    assert [op.copy_pid for op in reads] == [2]


def test_crash_and_recover_rejoins():
    cluster = make_cluster()
    cluster.start()
    (recover,) = apply_schedule(cluster.injector,
                                [FaultAction(5.0, "crash", (4,), inf)])
    cluster.run(until=5.0 + cluster.config.liveness_bound)
    assert 4 not in cluster.protocol(1).view
    cluster.injector.at(50.0, *recover)
    cluster.run(until=50.0 + cluster.config.liveness_bound)
    assert converged(cluster)
    assert 4 in cluster.protocol(1).view


def test_recovered_processor_catches_up_on_writes():
    cluster = make_cluster()
    cluster.start()
    (recover,) = apply_schedule(cluster.injector,
                                [FaultAction(5.0, "crash", (4,), inf)])
    cluster.run(until=30.0)
    cluster.write_once(1, "x", 123)
    cluster.run(until=50.0)
    cluster.injector.at(51.0, *recover)
    cluster.run(until=51.0 + cluster.config.liveness_bound + 10)
    value, _date = cluster.processor(4).store.peek("x")
    assert value == 123


def test_transactions_during_partition_stay_1sr():
    cluster = make_cluster()
    copies = CopyOrder(cluster.history)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)

    def body(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value

    for _ in range(3):
        cluster.submit(1, body)
        cluster.run(until=cluster.sim.now + 30.0)
    cluster.injector.at(cluster.sim.now + 1, *heal)
    cluster.run(until=cluster.sim.now + cluster.config.liveness_bound + 10)
    value, _ = cluster.processor(4).store.peek("x")
    assert value == 3
    assert cluster.check_one_copy_serializable()
    assert is_cp_serializable(copies)


def _count_recovery_reads(init_strategy, split_off_fastpath):
    config = ProtocolConfig(delta=1.0, init_strategy=init_strategy,
                            split_off_fastpath=split_off_fastpath)
    cluster = make_cluster(config=config)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [SPLIT])
    cluster.run(until=40.0)
    cluster.write_once(1, "x", 55)
    cluster.run(until=60.0)
    counts = {"vpread": 0}

    def tap(message):
        if message.kind == "vpread":
            counts["vpread"] += 1

    cluster.network.tap = tap
    cluster.injector.at(61.0, *heal)
    cluster.run(until=61.0 + cluster.config.liveness_bound + 10)
    value, _ = cluster.processor(5).store.peek("x")
    assert value == 55, "recovery must propagate the majority write"
    return counts["vpread"]


def test_previous_strategy_cuts_recovery_reads():
    """§6: the previous_v-ordered search reads one copy per object
    instead of every copy in the view."""
    naive_reads = _count_recovery_reads("read-all", False)
    optimized_reads = _count_recovery_reads("previous", True)
    assert optimized_reads < naive_reads / 2, (
        f"expected a large reduction: {optimized_reads} vs {naive_reads}"
    )


def test_identical_seeds_identical_histories():
    from repro.net import UniformLatency

    def run(seed):
        cluster = Cluster(processors=5, seed=seed,
                          latency=UniformLatency(0.5, 1.0))
        copies = CopyOrder(cluster.history)
        cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
        cluster.start()
        apply_schedule(cluster.injector, [
            FaultAction(5.0, "partition", ((1, 2), (3, 4, 5)), 45.0)])
        cluster.write_once(3, "x", 1)
        cluster.run(until=120.0)
        history = cluster.history
        return (
            [(t, p, v) for t, p, v, _ in history.joins],
            [(op.time, op.txn, op.kind, op.obj, op.copy_pid)
             for op in copies.ops],
        )

    assert run(9) == run(9)
    assert run(9) != run(10)
