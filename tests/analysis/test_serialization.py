"""Unit tests for the CP-serializability checker."""

from repro.analysis.history import History, PhysicalOp
from repro.analysis.serialization import (
    CopyOrder,
    conflict_graph,
    find_cycle,
    is_cp_serializable,
    serial_order,
    topological_order,
)


def _watched() -> CopyOrder:
    """A fresh history with the CP check's reader wired."""
    return CopyOrder(History())


def _committed_txn(history, txn, ops):
    """ops: list of (time, kind, obj, copy_pid)."""
    history.begin_txn(txn, origin=1, time=min(t for t, _, _, _ in ops))
    for time, kind, obj, copy_pid in ops:
        history.record(PhysicalOp(time=time, txn=txn, kind=kind, obj=obj,
                                  copy_pid=copy_pid, value=None, version=None,
                                  vpid=None))
    history.commit_txn(txn, time=max(t for t, _, _, _ in ops) + 1)


def test_empty_history_is_serializable():
    assert is_cp_serializable(_watched())
    assert serial_order(_watched()) == []


def test_sequential_conflicting_txns_are_serializable():
    copies = _watched()
    history = copies.history
    _committed_txn(history, "t1", [(1.0, "w", "x", 1)])
    _committed_txn(history, "t2", [(5.0, "r", "x", 1)])
    assert is_cp_serializable(copies)
    assert serial_order(copies) == ["t1", "t2"]


def test_classic_rw_cycle_detected():
    copies = _watched()
    history = copies.history
    # t1 reads x then writes y; t2 reads y (before t1's write) then
    # writes x (after t1's read): conflict edges t1->t2 and t2->t1.
    history.begin_txn("t1", origin=1, time=0.0)
    history.begin_txn("t2", origin=2, time=0.0)
    history.record(PhysicalOp(time=1.0, txn="t1", kind="r", obj="x",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=2.0, txn="t2", kind="r", obj="y",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=3.0, txn="t1", kind="w", obj="y",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=4.0, txn="t2", kind="w", obj="x",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.commit_txn("t1", time=5.0)
    history.commit_txn("t2", time=5.0)
    assert not is_cp_serializable(copies)
    cycle = find_cycle(conflict_graph(copies))
    assert cycle is not None
    assert set(cycle) >= {"t1", "t2"}


def test_aborted_txns_are_excluded():
    copies = _watched()
    history = copies.history
    history.begin_txn("t1", origin=1, time=0.0)
    history.begin_txn("t2", origin=2, time=0.0)
    history.record(PhysicalOp(time=1.0, txn="t1", kind="r", obj="x",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=2.0, txn="t2", kind="r", obj="y",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=3.0, txn="t1", kind="w", obj="y",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.record(PhysicalOp(time=4.0, txn="t2", kind="w", obj="x",
                              copy_pid=1, value=None, version=None, vpid=None))
    history.commit_txn("t1", time=5.0)
    history.abort_txn("t2", time=5.0)
    assert is_cp_serializable(copies)


def test_reads_do_not_conflict():
    copies = _watched()
    history = copies.history
    _committed_txn(history, "t1", [(1.0, "r", "x", 1)])
    _committed_txn(history, "t2", [(2.0, "r", "x", 1)])
    graph = conflict_graph(copies)
    assert graph == {"t1": set(), "t2": set()}


def test_different_copies_do_not_conflict():
    copies = _watched()
    history = copies.history
    _committed_txn(history, "t1", [(1.0, "w", "x", 1)])
    _committed_txn(history, "t2", [(2.0, "w", "x", 2)])
    graph = conflict_graph(copies)
    assert graph["t1"] == set() and graph["t2"] == set()


def test_serial_order_respects_edges():
    copies = _watched()
    history = copies.history
    _committed_txn(history, "t3", [(5.0, "w", "x", 1)])
    _committed_txn(history, "t1", [(1.0, "w", "x", 1)])
    _committed_txn(history, "t2", [(3.0, "r", "x", 1)])
    order = serial_order(copies)
    assert order.index("t1") < order.index("t2") < order.index("t3")


def test_serial_order_raises_on_cycle():
    import pytest

    copies = _watched()
    history = copies.history
    history.begin_txn("t1", origin=1, time=0.0)
    history.begin_txn("t2", origin=2, time=0.0)
    for time, txn, obj in [(1.0, "t1", "x"), (2.0, "t2", "x"),
                           (3.0, "t2", "y"), (4.0, "t1", "y")]:
        history.record(PhysicalOp(time=time, txn=txn, kind="w", obj=obj,
                                  copy_pid=1, value=None, version=None,
                                  vpid=None))
    history.commit_txn("t1", time=5.0)
    history.commit_txn("t2", time=5.0)
    with pytest.raises(ValueError):
        serial_order(copies)


def test_topological_order_takes_the_smallest_key_among_ready_nodes():
    edges = {"c": set(), "a": {"d"}, "b": set(), "d": set()}
    assert topological_order(edges, key=str) == ["a", "b", "c", "d"]
    # keys that tie (or cannot be compared with each other) never make
    # the nodes themselves get compared
    assert topological_order({1: set(), "x": {1}}, key=lambda n: 0) == ["x", 1]


def test_topological_order_of_a_cyclic_graph_is_none():
    assert topological_order({"a": {"b"}, "b": {"a"}, "c": set()},
                             key=str) is None
