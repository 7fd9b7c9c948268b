"""Unit tests for the history recorder."""

import pytest

from repro.analysis.history import INITIAL_VERSION, History, Join, PhysicalOp
from tests.analysis import record_logical


@pytest.fixture()
def history():
    return History()


def test_txn_lifecycle(history):
    history.begin_txn("t1", origin=1, time=0.0)
    history.commit_txn("t1", time=5.0)
    record = history.txns["t1"]
    assert record.status == "committed"
    assert record.end_time == 5.0
    assert history.committed()[0].txn == "t1"


def test_abort_records_reason(history):
    history.begin_txn("t1", origin=1, time=0.0)
    history.abort_txn("t1", time=3.0, reason="lock-timeout")
    assert history.aborted()[0].abort_reason == "lock-timeout"
    assert history.committed() == []


def test_double_begin_rejected(history):
    history.begin_txn("t1", origin=1, time=0.0)
    with pytest.raises(KeyError):
        history.begin_txn("t1", origin=2, time=1.0)


def test_finish_twice_rejected(history):
    history.begin_txn("t1", origin=1, time=0.0)
    history.commit_txn("t1", time=1.0)
    with pytest.raises(ValueError):
        history.abort_txn("t1", time=2.0)


def test_unknown_txn_rejected(history):
    with pytest.raises(KeyError):
        history.commit_txn("ghost", time=1.0)


def test_physical_ops_attach_to_txn(history):
    history.begin_txn("t1", origin=1, time=0.0)
    history.record(PhysicalOp(time=1.0, txn="t1", kind="r", obj="x",
                              copy_pid=2, value=0, version=INITIAL_VERSION,
                              vpid="v1"))
    history.record(PhysicalOp(time=2.0, txn="t1", kind="w", obj="x",
                              copy_pid=2, value=1, version=("t1", 1),
                              vpid="v1"))
    history.record(PhysicalOp(time=3.0, txn="t2", kind="r", obj="x",
                              copy_pid=3, value=1, version=("t1", 1),
                              vpid="v1"))
    # one global list, in record order; a txn's or a copy's ops filter it
    assert [op.time for op in history.physical_ops] == [1.0, 2.0, 3.0]
    ops = [op for op in history.physical_ops if op.txn == "t1"]
    assert [op.kind for op in ops] == ["r", "w"]
    assert {op.vpid for op in ops} == {"v1"}
    on_copy = [op for op in history.physical_ops
               if (op.obj, op.copy_pid) == ("x", 2)]
    assert on_copy == ops


def test_logical_ops_and_read_write_sets(history):
    history.begin_txn("t1", origin=1, time=0.0)
    record_logical(history, time=1.0, txn="t1", kind="r", obj="x",
                   value=0, version=INITIAL_VERSION)
    record_logical(history, time=2.0, txn="t1", kind="w", obj="y",
                   value=9, version=("t1", 1))
    record = history.txns["t1"]
    assert record.logical_ops == history.logical_ops
    assert {op.obj for op in record.logical_ops if op.kind == "r"} == {"x"}
    assert {op.obj for op in record.logical_ops if op.kind == "w"} == {"y"}


def test_invalid_kind_rejected(history):
    history.begin_txn("t1", origin=1, time=0.0)
    with pytest.raises(ValueError):
        history.record(PhysicalOp(time=1.0, txn="t1", kind="x", obj="x",
                                  copy_pid=1, value=0, version=None, vpid=None))
    with pytest.raises(ValueError):
        record_logical(history, time=1.0, txn="t1", kind="q", obj="x",
                       value=0, version=None)


def test_view_of_is_unique_per_partition(history):
    history.record(Join(time=1.0, pid=1, vpid="v1", view=frozenset({1, 2})))
    history.record(Join(time=2.0, pid=2, vpid="v1", view=frozenset({1, 2})))
    assert history.view_of("v1") == frozenset({1, 2})
    assert history.members_of("v1") == {1, 2}
    with pytest.raises(KeyError):
        history.view_of("ghost")


def test_view_of_detects_s1_violation(history):
    history.record(Join(time=1.0, pid=1, vpid="v1", view=frozenset({1})))
    history.record(Join(time=2.0, pid=2, vpid="v1", view=frozenset({1, 2})))
    with pytest.raises(AssertionError):
        history.view_of("v1")
