"""Presumed abort across a crash between a share's yes vote and its release.

2PC forces a share's prepare record only if the share wrote: a
before-image is what recovery must keep or undo.  So a crash in that
window keeps a writing share in doubt (its write survives, and its
resolver learns the commit after recovery) but forgets a read-only
share's doubt, which nothing durable backs: that share runs no
resolver, and its read locks went with the crash.

Both scripts run rowa on three processors with delta 1, the auditor
armed, a transaction at p1 and p3 crashing after its yes vote left; p3
is down when the release reaches it, so only a resolver could tell it
the outcome.  The ``writer_skips_prepare`` mutant (a share that wrote
is treated as read-only) loses the committed write at p3.
"""

import pytest

from repro import Cluster, FaultAction, apply_schedule
from repro.protocols import RowaProtocol
from tests.mutants import writer_skips_prepare


def crash_p3(holders, at: float, recover: float) -> tuple:
    """A rowa cluster with ``holders`` per object, p3 crashed at ``at``
    and recovered at ``recover``; returns it and its sent messages."""
    cluster = Cluster(processors=3, seed=1, protocol=RowaProtocol, audit=True)
    for obj, pids in holders.items():
        cluster.place(obj, holders=pids, initial=0)
    cluster.start()
    apply_schedule(cluster.injector,
                   [FaultAction(at, "crash", (3,), recover - at)])
    sent = []
    cluster.network.tap = sent.append
    return cluster, sent


def status_queries(sent, pid: int) -> int:
    return sum(m.kind == "txn-status" and m.src == pid for m in sent)


def test_a_writing_share_keeps_the_committed_write_across_the_crash():
    # p3's yes vote leaves at 3.0; the release reaches p3 at 5.0, while
    # it is down; its resolver asks p1 after it recovers at 6.0
    cluster, sent = crash_p3({"x": [1, 2, 3]}, at=4.5, recover=6.0)
    t1 = cluster.write_once(1, "x", 1)
    cluster.run(until=20.0)
    assert t1.value == (True, 1)
    (version,) = {op.version for record in cluster.history.committed()
                  for op in record.logical_ops}
    held = [cluster.processor(pid).store.read("x")[0] for pid in (1, 2, 3)]
    assert held == [1, 1, 1], f"a copy lost the committed write: {held}"
    assert {cluster.processor(pid).store.version("x") for pid in (1, 2, 3)} == {version}
    assert status_queries(sent, 3) >= 1, "the release was not lost"
    assert not cluster.protocol(3).commit.in_doubt
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]


def test_a_read_only_share_runs_no_resolver_after_recovery():
    # T reads y at p3 (its one copy) and writes x on p1 and p2; p3's yes
    # vote leaves at 5.0, the release reaches it at 7.0, while it is down
    cluster, sent = crash_p3({"x": [1, 2], "y": [3]}, at=6.5, recover=8.0)
    commit = cluster.protocol(3).commit
    resolvers = []
    resolve = commit._resolve_in_doubt

    def recording_resolve(txn):
        resolvers.append(txn)
        return resolve(txn)

    commit._resolve_in_doubt = recording_resolve

    def read_y_write_x(txn):
        y = yield from txn.read("y")
        yield from txn.write("x", y + 1)

    t = cluster.submit(1, read_y_write_x)
    cluster.run(until=6.0)
    assert commit.in_doubt, "p3 never voted yes"
    cluster.run(until=30.0)
    assert t.value[0], t.value
    assert (resolvers, status_queries(sent, 3), commit.in_doubt) == ([], 0, {})
    # nothing of T holds y: a write of it commits at once
    t2 = cluster.write_once(3, "y", 5)
    cluster.run(until=t2)
    assert t2.value == (True, 5)
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]


def test_the_writer_skips_prepare_mutant_is_convicted():
    with writer_skips_prepare(), pytest.raises(AssertionError,
                                               match="lost the committed write"):
        test_a_writing_share_keeps_the_committed_write_across_the_crash()
