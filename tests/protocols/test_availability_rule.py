"""``available(obj, write)`` predicts what a lone access does.

One rule answers availability for every baseline: the copies a
processor reaches hold ``thresholds(obj)[write]`` votes.  On every
k | n - k split of n = 4 and n = 5 copies, the predicate at p1 (on the
k side) must equal the outcome of a single-access transaction p1 runs
there — for reads and for writes, and for missing-writes both before
and after a write went missing.
"""

import pytest

from repro import Cluster
from repro.protocols import (MajorityProtocol, MissingWritesProtocol,
                             QuorumProtocol, RowaProtocol)

PROTOCOLS = {
    "rowa": RowaProtocol,
    "quorum": QuorumProtocol,
    "majority": MajorityProtocol,
    "missing-writes": MissingWritesProtocol,
    # a write to p_n went missing: reads gather quorum's r
    "missing-writes-failed": MissingWritesProtocol,
}

CASES = [(name, n, k, write)
         for name in PROTOCOLS
         for n in (4, 5)
         for k in range(1, n)
         for write in (False, True)]


@pytest.mark.parametrize(
    "name, n, k, write", CASES,
    ids=[f"{name}-n{n}-{k}|{n - k}-{'write' if write else 'read'}"
         for name, n, k, write in CASES])
def test_available_equals_the_lone_access(name, n, k, write):
    cluster = Cluster(processors=n, seed=1, protocol=PROTOCOLS[name])
    cluster.place("x", holders=list(range(1, n + 1)), initial=0)
    cluster.start()
    protocol = cluster.protocol(1)
    if name == "missing-writes-failed":
        protocol._missing["x"] = {n}
    cluster.graph.partition([set(range(1, k + 1)), set(range(k + 1, n + 1))])
    predicted = protocol.available("x", write)
    access = (cluster.write_once(1, "x", 7) if write
              else cluster.read_once(1, "x"))
    committed, _ = cluster.sim.run(until=access)
    assert predicted == committed
