"""Unit tests for the read-one/write-all baseline."""

from math import inf

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import RowaProtocol


def build(n=5, seed=1):
    cluster = Cluster(processors=n, seed=seed, protocol=RowaProtocol)
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


def test_read_costs_one_access():
    cluster = build()
    read = cluster.read_once(2, "x")
    cluster.run(until=30.0)
    assert read.value == (True, 0)
    metrics = cluster.metrics
    assert metrics.physical_read_rpcs == 1
    assert metrics.local_reads == 1  # p2 holds a copy: read locally


def test_write_touches_every_copy():
    cluster = build()
    write = cluster.write_once(1, "x", 7)
    cluster.run(until=30.0)
    assert write.value == (True, 7)
    assert cluster.metrics.physical_write_rpcs == 5
    for pid in cluster.pids:
        value, _ = cluster.processor(pid).store.peek("x")
        assert value == 7


def test_single_crashed_copy_blocks_writes():
    cluster = build()
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (5,), inf)])
    cluster.run(until=10.0)
    write = cluster.write_once(1, "x", 7)
    cluster.run(until=120.0)
    assert write.value[0] is False


def test_reads_fail_over_to_next_copy():
    cluster = build()
    apply_schedule(cluster.injector, [FaultAction(5.0, "crash", (2,), inf)])
    cluster.run(until=10.0)
    read = cluster.read_once(2, "x")  # p2 itself crashed; client at p2...
    cluster.run(until=60.0)
    # a crashed processor cannot run clients; use p1 reading with p2 down
    cluster2 = build(seed=3)
    # p1's own copy is gone
    apply_schedule(cluster2.injector,
                   [FaultAction(5.0, "crash", (1,), inf)])
    cluster2.run(until=10.0)
    cluster2.processors[1].recover()  # client node itself stays alive
    cluster2.graph.recover_node(1)
    cluster2.graph.cut_link(1, 2)  # nearest remote copy unreachable
    read2 = cluster2.read_once(1, "x")
    cluster2.run(until=120.0)
    assert read2.value[0] is True  # failed over past the dead link


def test_no_copy_anywhere_aborts_read():
    cluster = Cluster(processors=3, seed=1, protocol=RowaProtocol)
    cluster.place("x", holders=[2], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [FaultAction(1.0, "crash", (2,), inf)])
    cluster.run(until=5.0)
    read = cluster.read_once(1, "x")
    cluster.run(until=120.0)
    assert read.value[0] is False


def test_availability_predicate():
    cluster = build()
    assert cluster.protocol(1).available("x", write=True)
    cluster.graph.crash_node(5)
    assert not cluster.protocol(1).available("x", write=True)
    assert cluster.protocol(1).available("x", write=False)


def test_sequential_increments_are_1sr():
    cluster = build()

    def increment(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value

    for pid in (1, 2, 3):
        cluster.submit(pid, increment)
        cluster.run(until=cluster.sim.now + 25.0)
    value, _ = cluster.processor(4).store.peek("x")
    assert value == 3
    assert cluster.check_one_copy_serializable()
