"""A crashed copy holder neither votes yes on nor forgets a write.

Two windows, one script (T1 at p1 writes x on three copies while p3
crashes and recovers; then (1,2) at p1 reads x and writes y, and
(3,1) at p3 reads y and then x):

* **Between the access and the prepare.**  p3's crash hook restored
  x's before-image and its fresh CC forgot T1's locks, so a yes vote
  would commit a write the copy no longer holds.  p3 votes txn-lost.
* **Between the yes vote and the release.**  p3 voted yes, so T1 may
  commit; a crash hook that restores the before-image anyway leaves
  the committed x missing at p3.  The in-doubt copy keeps its write
  until the decision reaches it.

Either mistake gives the 1SR cycle ``(1,1) -wr x→ (1,2) -wr y→ (3,1)
-rw x→ (1,1)``: (3,1) reads p3's rolled-back x.

An in-doubt write kept across a crash has no lock guarding it (the
crash hook's CC is fresh), so until the resolver learns the outcome the
copy refuses every access: served, a read of it could return a write
that then aborts, and a write over it would be undone by that abort.
"""

from repro import Cluster, FaultAction, apply_schedule
from repro.analysis.one_copy import check_one_copy
from repro.protocols import RowaProtocol


def crash_p3(at: float, recover: float) -> Cluster:
    cluster = Cluster(processors=3, seed=1, protocol=RowaProtocol)
    for obj in ("x", "y"):
        cluster.place(obj, holders=[1, 2, 3], initial=0)
    cluster.start()
    apply_schedule(cluster.injector,
                   [FaultAction(at, "crash", (3,), recover - at)])
    return cluster


def run_the_readers(cluster: Cluster):
    def read_x_write_y(txn):
        value = yield from txn.read("x")
        yield from txn.write("y", value)

    def read_y_then_x(txn):
        y = yield from txn.read("y")
        x = yield from txn.read("x")
        return y, x

    for pid, body in ((1, read_x_write_y), (3, read_y_then_x)):
        cluster.run(until=cluster.submit(pid, body))
    return check_one_copy(cluster.history)


def test_a_crash_between_access_and_prepare_aborts_the_commit():
    cluster = crash_p3(at=3.0, recover=5.0)

    def write_then_wait(txn):
        yield from txn.write("x", 1)
        yield cluster.sim.timeout(10.0)

    t1 = cluster.submit(1, write_then_wait)
    cluster.run(until=t1)
    assert t1.value == (False, "participant 3 voted txn-lost")
    result = run_the_readers(cluster)
    assert result.ok, result.violation


def test_a_crash_between_yes_vote_and_release_keeps_the_committed_write():
    # p3's yes vote reaches p1 at 4.0; the release would reach p3 at 5.0
    cluster = crash_p3(at=4.5, recover=4.8)

    def write_x(txn):
        yield from txn.write("x", 1)

    t1 = cluster.submit(1, write_x)
    cluster.run(until=6.0)
    assert t1.value[0], t1.value
    result = run_the_readers(cluster)
    assert result.ok, result.violation
    written = {op.version for record in cluster.history.committed()
               for op in record.logical_ops
               if op.kind == "w" and op.obj == "x"}
    assert {cluster.processor(pid).store.version("x")
            for pid in (1, 2, 3)} == written


def test_an_in_doubt_write_is_not_served_before_its_abort_lands():
    # p2 crashes before T1's prepare reaches it, so p1 aborts T1 at 26.0;
    # the release would reach p3 at 27.0, while p3 is down since its yes
    # vote.  p3 is back at 28.0; its resolver learns the abort at 30.0.
    cluster = crash_p3(at=3.5, recover=28.0)
    apply_schedule(cluster.injector, [FaultAction(2.5, "crash", (2,), 7.5)])
    t1 = cluster.write_once(1, "x", 1)
    cluster.run(until=28.0)
    assert not t1.value[0], t1.value

    def bump_x(txn):
        x = yield from txn.read("x")
        yield from txn.write("x", x + 10)
        return x

    t3 = cluster.submit(3, bump_x, retries=5, backoff=2.0)
    cluster.run(until=t3)
    assert t3.value == (True, 0)
    assert cluster.metrics.by_reason["in-doubt"] >= 1
    assert {cluster.processor(pid).store.read("x")[0]
            for pid in (1, 2, 3)} == {10}
    result = check_one_copy(cluster.history)
    assert result.ok, result.violation
