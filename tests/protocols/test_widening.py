"""The two widening rules of the one vote-gathering walk.

``ReplicaControlProtocol._gather`` asks copies nearest first, in waves
of the fewest copies whose votes could reach the access's need; after
a wave that falls short, the caller's rule says whether another goes.
A quorum access always widens — on silence and on a refusal alike —
while Fig. 10's read-one widens only on silence: a refusal ends it.
Swapping the two rules fails the refusal tests below.
"""

from math import inf

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import QuorumProtocol, RowaProtocol


def build(protocol, n=5):
    cluster = Cluster(processors=n, seed=1, protocol=protocol)
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    cluster.start()
    return cluster


def record_waves(cluster, pid):
    """The targets of every ``read`` call ``pid`` makes, call by call."""
    processor = cluster.processor(pid)
    scatter, waves = processor.scatter, []

    def recording(targets, kind, *args, **kwargs):
        if kind == "read":
            waves.append(list(targets))
        return scatter(targets, kind, *args, **kwargs)

    processor.scatter = recording
    return waves


def test_a_silent_quorum_copy_widens_by_one_copy():
    cluster = build(QuorumProtocol)
    nearest = cluster.protocol(1)._nearest("x")
    r, _ = cluster.protocol(1).thresholds("x")
    apply_schedule(cluster.injector,
                   [FaultAction(1.0, "crash", (nearest[1],), inf)])
    cluster.run(until=5.0)
    waves = record_waves(cluster, 1)
    read = cluster.read_once(1, "x")
    cluster.run(until=120.0)
    assert read.value == (True, 0)
    assert waves == [nearest[:r], nearest[r:r + 1]]
    assert cluster.metrics.physical_read_rpcs == r + 1


def test_a_refused_quorum_copy_widens_too():
    cluster = build(QuorumProtocol)
    nearest = cluster.protocol(1)._nearest("x")
    r, _ = cluster.protocol(1).thresholds("x")
    cluster.processor(nearest[0]).store.retire("x")  # refuses: no-copy
    waves = record_waves(cluster, 1)
    read = cluster.read_once(1, "x")
    cluster.run(until=120.0)
    assert read.value == (True, 0)
    assert waves == [nearest[:r], nearest[r:r + 1]]
    assert cluster.metrics.by_reason == {}


def test_a_refused_rowa_read_ends_at_its_nearest_copy():
    cluster = build(RowaProtocol)
    nearest = cluster.protocol(1)._nearest("x")
    cluster.processor(nearest[0]).store.retire("x")
    waves = record_waves(cluster, 1)
    read = cluster.read_once(1, "x")
    cluster.run(until=120.0)
    assert read.value[0] is False
    assert waves == [nearest[:1]]
    assert cluster.metrics.physical_read_rpcs == 1
    assert cluster.metrics.by_reason == {"no-copy": 1}
