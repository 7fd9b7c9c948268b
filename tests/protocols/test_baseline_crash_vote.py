"""A participant that lost the transaction votes no.

A copy holder can crash and recover between serving a write and
receiving the prepare.  Its crash hook restored the before-image and
its fresh CC forgot the transaction's locks, so a yes vote would commit
a write the copy no longer holds.  With the yes vote, this script gives
the 1SR cycle ``(1,1) -wr x→ (1,2) -wr y→ (3,1) -rw x→ (1,1)``: (3,1)
reads p3's rolled-back x.
"""

from repro import Cluster
from repro.analysis.one_copy import check_one_copy
from repro.protocols import RowaProtocol


def test_a_crash_between_access_and_prepare_aborts_the_commit():
    cluster = Cluster(processors=3, seed=1, protocol=RowaProtocol)
    for obj in ("x", "y"):
        cluster.place(obj, holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.injector.crash_at(3.0, 3)
    cluster.injector.recover_at(5.0, 3)

    def write_then_wait(txn):
        yield from txn.write("x", 1)
        yield cluster.sim.timeout(10.0)

    def read_x_write_y(txn):
        value = yield from txn.read("x")
        yield from txn.write("y", value)

    def read_y_then_x(txn):
        y = yield from txn.read("y")
        x = yield from txn.read("x")
        return y, x

    t1 = cluster.submit(1, write_then_wait)
    cluster.run(until=t1)
    assert t1.value == (False, "participant 3 voted txn-lost")
    for pid, body in ((1, read_x_write_y), (3, read_y_then_x)):
        cluster.run(until=cluster.submit(pid, body))
    result = check_one_copy(cluster.history)
    assert result.ok, result.violation
