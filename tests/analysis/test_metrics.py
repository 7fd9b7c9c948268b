"""Unit tests for history measurement utilities."""

from repro.analysis.history import INITIAL_VERSION, History, Join
from repro.analysis.metrics import convergence_time, stale_reads
from tests.analysis import record_logical


def test_convergence_time_to_highest_partition():
    history = History()
    history.record(Join(time=10.0, pid=1, vpid=(2, 1), view=frozenset({1, 2})))
    history.record(Join(time=12.0, pid=2, vpid=(2, 1), view=frozenset({1, 2})))
    history.record(Join(time=15.0, pid=1, vpid=(3, 1), view=frozenset({1, 2})))
    history.record(Join(time=18.0, pid=2, vpid=(3, 1), view=frozenset({1, 2})))
    assert convergence_time(history, after=10.0) == 8.0
    assert convergence_time(history, after=16.0) == 2.0
    assert convergence_time(history, after=100.0) is None


def _committed(history, txn, begin, end, ops):
    history.begin_txn(txn, origin=1, time=begin)
    for time, kind, obj, version in ops:
        record_logical(history, time=time, txn=txn, kind=kind, obj=obj,
                       value=None, version=version)
    history.commit_txn(txn, time=end)


def test_stale_reads_detected():
    history = History()
    # writer commits v1 at t=10
    _committed(history, "w1", 0.0, 10.0,
               [(5.0, "w", "x", ("w1", 1))])
    # a reader at t=20 still returns the INITIAL version: stale by 10
    _committed(history, "r1", 18.0, 22.0,
               [(20.0, "r", "x", INITIAL_VERSION)])
    # a reader returning the current version is not stale
    _committed(history, "r2", 24.0, 26.0,
               [(25.0, "r", "x", ("w1", 1))])
    found = stale_reads(history)
    assert len(found) == 1
    stale = found[0]
    assert stale.txn == "r1" and stale.obj == "x"
    assert stale.staleness == 10.0


def test_stale_reads_ignores_reads_before_the_write():
    history = History()
    _committed(history, "r1", 0.0, 2.0,
               [(1.0, "r", "x", INITIAL_VERSION)])
    _committed(history, "w1", 3.0, 5.0,
               [(4.0, "w", "x", ("w1", 1))])
    assert stale_reads(history) == []
