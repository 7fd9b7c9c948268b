"""Unit tests for Thomas majority voting and the missing-writes scheme."""

from math import inf

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import MajorityProtocol, MissingWritesProtocol


def build(protocol, n=5, holders=None, seed=1):
    cluster = Cluster(processors=n, seed=seed, protocol=protocol)
    cluster.place("x", holders=holders or list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


# -- majority -----------------------------------------------------------------

def test_majority_ignores_weights():
    cluster = Cluster(processors=3, seed=1, protocol=MajorityProtocol)
    cluster.place("x", holders={1: 100, 2: 1, 3: 1}, initial=0)
    cluster.start()
    protocol = cluster.protocol(1)
    r, w = protocol.thresholds("x")
    assert r == w == 2  # majority of 3 COPIES, weights ignored
    assert protocol.vote_weight("x", 1) == 1


def test_majority_read_and_write_cost():
    cluster = build(MajorityProtocol)
    write = cluster.write_once(1, "x", 5)
    cluster.run(until=40.0)
    read = cluster.read_once(2, "x")
    cluster.run(until=80.0)
    assert write.value[0] and read.value == (True, 5)
    metrics = cluster.metrics
    assert metrics.physical_write_rpcs == 3       # majority write
    # read = 3 data accesses (majority); version round counted apart
    assert metrics.physical_read_rpcs - metrics.version_collect_rpcs == 3


def test_majority_tolerates_minority_partition():
    cluster = build(MajorityProtocol)
    apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2, 3), (4, 5)), inf)])
    cluster.run(until=10.0)
    good = cluster.write_once(1, "x", 9)
    bad = cluster.write_once(4, "x", 8)
    cluster.run(until=200.0)
    assert good.value == (True, 9)
    assert bad.value[0] is False


# -- missing writes -----------------------------------------------------------

def test_mw_healthy_mode_reads_one_copy():
    cluster = build(MissingWritesProtocol)
    read = cluster.read_once(3, "x")
    cluster.run(until=30.0)
    assert read.value == (True, 0)
    assert cluster.metrics.physical_read_rpcs == 1


def test_mw_write_with_down_copy_succeeds_and_logs():
    cluster = build(MissingWritesProtocol)
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    write = cluster.write_once(1, "x", 42)
    cluster.run(until=80.0)
    assert write.value == (True, 42)
    # p5's copy became a missing-write entry; logging cost was counted.
    assert cluster.protocol(1)._missing.get("x") == {5}
    assert cluster.metrics.transfer_units >= 1


def test_mw_failure_mode_reads_majority():
    cluster = build(MissingWritesProtocol)
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    cluster.write_once(1, "x", 42)
    cluster.run(until=80.0)
    metrics = cluster.metrics
    data_reads_before = (metrics.physical_read_rpcs
                         - metrics.version_collect_rpcs)
    read = cluster.read_once(2, "x")
    cluster.run(until=160.0)
    assert read.value == (True, 42)
    data_reads = (metrics.physical_read_rpcs - metrics.version_collect_rpcs
                  - data_reads_before)
    assert data_reads >= 3, "failure-mode reads must assemble a majority"


def test_mw_note_broadcast_switches_everyone():
    cluster = build(MissingWritesProtocol)
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    cluster.write_once(1, "x", 42)
    cluster.run(until=80.0)
    for pid in (1, 2, 3, 4):
        assert cluster.protocol(pid)._missing.get("x") == {5}


def test_mw_repair_returns_to_normal_mode():
    cluster = build(MissingWritesProtocol)
    (recover,) = apply_schedule(cluster.injector,
                                [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    cluster.write_once(1, "x", 42)
    cluster.run(until=80.0)
    cluster.injector.at(81.0, *recover)
    # give the repair loop (period pi) a few cycles
    cluster.run(until=81.0 + 5 * cluster.config.pi)
    for pid in cluster.pids:
        assert not cluster.protocol(pid)._missing.get("x"), (
            f"p{pid} still in failure mode"
        )
    value, _ = cluster.processor(5).store.peek("x")
    assert value == 42, "repair must push the missed value to p5"
    # read first: the transaction issues its read inside read_once
    cost_before = cluster.metrics.physical_read_rpcs
    read = cluster.read_once(3, "x")
    cluster.run(until=cluster.sim.now + 30.0)
    assert read.value == (True, 42)
    assert cluster.metrics.physical_read_rpcs == cost_before + 1


def test_mw_no_majority_write_aborts():
    cluster = build(MissingWritesProtocol)
    for pid in (3, 4, 5):
        apply_schedule(cluster.injector,
                       [FaultAction(5.0, "crash", (pid,), inf)])
    cluster.run(until=10.0)
    write = cluster.write_once(1, "x", 1)
    cluster.run(until=200.0)
    assert write.value[0] is False
