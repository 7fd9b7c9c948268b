"""Unit tests for the one-copy serializability checker."""

import pytest

from repro.analysis import one_copy
from repro.analysis.history import INITIAL_VERSION, History, PhysicalOp
from repro.analysis.one_copy import check_one_copy, is_one_copy_serializable
from tests.analysis import record_logical


def build(txns):
    """txns: list of (txn_id, [(kind, obj, version)]) committed in order."""
    history = History()
    time = 0.0
    for txn, ops in txns:
        history.begin_txn(txn, origin=1, time=time)
        for kind, obj, version in ops:
            time += 1.0
            record_logical(history, time=time, txn=txn, kind=kind, obj=obj,
                           value=None, version=version)
        time += 1.0
        history.commit_txn(txn, time=time)
    return history


def test_empty_history_is_1sr():
    result = check_one_copy(History())
    assert result.ok is True
    assert result.witness == []


def test_simple_chain_is_1sr():
    v1 = ("t1", 1)
    history = build([
        ("t1", [("r", "x", INITIAL_VERSION), ("w", "x", v1)]),
        ("t2", [("r", "x", v1)]),
    ])
    result = check_one_copy(history)
    assert result.ok is True
    assert result.witness.index("t1") < result.witness.index("t2")


def test_lost_update_is_not_1sr():
    """Example 1's shape: both increments read the initial version."""
    history = build([
        ("t1", [("r", "x", INITIAL_VERSION), ("w", "x", ("t1", 1))]),
        ("t2", [("r", "x", INITIAL_VERSION), ("w", "x", ("t2", 1))]),
    ])
    result = check_one_copy(history)
    assert result.ok is False
    assert result.cycle == (("t1", "ww", "x", "t2"), ("t2", "rw", "x", "t1"))
    assert result.violation == "t1 -ww x→ t2 -rw x→ t1"


def test_reads_from_cycle_is_not_1sr():
    """Example 2's shape: T_A→T_B→T_C→T_D→T_A via initial reads."""
    history = build([
        ("tA", [("r", "b", INITIAL_VERSION), ("w", "a", ("tA", 1))]),
        ("tB", [("r", "c", INITIAL_VERSION), ("w", "b", ("tB", 1))]),
        ("tC", [("r", "d", INITIAL_VERSION), ("w", "c", ("tC", 1))]),
        ("tD", [("r", "a", INITIAL_VERSION), ("w", "d", ("tD", 1))]),
    ])
    result = check_one_copy(history)
    assert result.ok is False
    assert result.violation == (
        "tA -rw b→ tB -rw c→ tC -rw d→ tD -rw a→ tA")


def test_out_of_commit_order_witness_found():
    """1SR can hold even when no real-time order works: stale reads in a
    minority partition serialize the reader *before* the writer."""
    v1 = ("t1", 1)
    history = build([
        ("t1", [("w", "x", v1)]),
        # t2 commits later in real time but read the pre-t1 value:
        ("t2", [("r", "x", INITIAL_VERSION)]),
    ])
    result = check_one_copy(history)
    assert result.ok is True
    assert result.witness.index("t2") < result.witness.index("t1")


def test_read_own_write():
    history = build([
        ("t1", [("w", "x", ("t1", 1)), ("r", "x", ("t1", 1))]),
    ])
    assert check_one_copy(history).ok is True


def test_read_own_write_then_overwrite():
    history = build([
        ("t1", [("w", "x", ("t1", 1)), ("r", "x", ("t1", 1)),
                ("w", "x", ("t1", 2))]),
        ("t2", [("r", "x", ("t1", 2))]),
    ])
    assert check_one_copy(history).ok is True


def test_dirty_read_from_aborted_txn_rejected():
    history = History()
    history.begin_txn("t1", origin=1, time=0.0)
    record_logical(history, time=1.0, txn="t1", kind="w", obj="x",
                   value=1, version=("t1", 1))
    history.abort_txn("t1", time=2.0)
    history.begin_txn("t2", origin=1, time=3.0)
    record_logical(history, time=4.0, txn="t2", kind="r", obj="x",
                   value=1, version=("t1", 1))
    history.commit_txn("t2", time=5.0)
    result = check_one_copy(history)
    assert result.ok is False
    assert "non-committed" in result.violation


def test_read_of_a_version_its_writer_replaced_is_rejected():
    """t1's first write of x never survives t1, so no serial one-copy
    execution can show it to t2."""
    history = build([
        ("t1", [("w", "x", ("t1", 1)), ("w", "x", ("t1", 2))]),
        ("t2", [("r", "x", ("t1", 1))]),
    ])
    result = check_one_copy(history)
    assert result.ok is False and result.cycle == ()
    assert "one its writer overwrote" in result.violation


def test_aborted_txns_ignored():
    history = History()
    history.begin_txn("t1", origin=1, time=0.0)
    record_logical(history, time=1.0, txn="t1", kind="w", obj="x",
                   value=1, version=("t1", 1))
    history.abort_txn("t1", time=2.0)
    assert check_one_copy(history).ok is True


def test_interleaved_objects_need_search():
    """A case where commit order fails but a reordering exists."""
    history = build([
        ("t1", [("w", "x", ("t1", 1))]),
        ("t2", [("w", "y", ("t2", 1))]),
        ("t3", [("r", "x", INITIAL_VERSION), ("r", "y", ("t2", 1))]),
    ])
    result = check_one_copy(history)
    assert result.ok is True
    witness = result.witness
    assert witness.index("t3") < witness.index("t1")
    assert witness.index("t2") < witness.index("t3")


def _blind_write_history(install_order):
    """t1 and t2 both write x blindly; t3 reads x from t1 and y from t2.
    Which of the two x versions the copy ends up holding is decided by
    the order they were installed in, not by anything a read saw."""
    history = History()
    for txn in ("t1", "t2", "t3"):
        history.begin_txn(txn, origin=1, time=0.0)
    for position, txn in enumerate(install_order):
        history.record(PhysicalOp(time=1.0 + position, txn=txn, kind="w",
                                  obj="x", copy_pid=1, value=None,
                                  version=(txn, 1), vpid=None))
    for txn, kind, obj, version in [
            ("t1", "w", "x", ("t1", 1)),
            ("t2", "w", "x", ("t2", 1)), ("t2", "w", "y", ("t2", 2)),
            ("t3", "r", "x", ("t1", 1)), ("t3", "r", "y", ("t2", 2))]:
        record_logical(history, time=5.0, txn=txn, kind=kind, obj=obj,
                       value=None, version=version)
    for position, txn in enumerate(("t1", "t2", "t3")):
        history.commit_txn(txn, time=10.0 + position)
    return history


def test_version_order_is_the_install_order():
    # x installed t2 then t1: the serial order t2, t1, t3 leaves x@t1
    result = check_one_copy(_blind_write_history(["t2", "t1"]))
    assert result.ok is True
    assert result.witness == ["t2", "t1", "t3"]


def test_blind_write_installed_out_of_order_is_rejected():
    """Same logical ops, x installed t1 then t2: every copy ends holding
    x@t2, yet t3 — which read y from t2, so follows it — read x@t1.  The
    order t2, t1, t3 still replays every *read*; it contradicts what the
    copies hold, which is what the next reader would get."""
    history = _blind_write_history(["t1", "t2"])
    result = check_one_copy(history)
    assert result.ok is False
    assert set(result.cycle) == {("t3", "rw", "x", "t2"),
                                 ("t2", "wr", "y", "t3")}
    records = {record.txn: record for record in history.committed()}
    assert one_copy._replay([records[t] for t in ("t2", "t1", "t3")]) is None


def test_witness_is_commit_order_when_nothing_forces_otherwise():
    history = build([(f"t{i}", [("w", f"o{i}", (f"t{i}", 1))])
                     for i in (3, 1, 2)])
    assert check_one_copy(history).witness == ["t3", "t1", "t2"]


def test_a_witness_that_fails_replay_is_an_error_not_a_verdict(monkeypatch):
    """The checker replays the order it is about to return; an acyclic
    graph whose order does not replay is a checker bug and raises."""
    monkeypatch.setattr(one_copy, "_replay", lambda order: "bad order")
    history = build([("t1", [("w", "x", ("t1", 1))])])
    with pytest.raises(AssertionError, match="bad order"):
        check_one_copy(history)


def test_twenty_antagonists_are_decisively_rejected():
    """20 pairwise-antagonistic transactions: every one read the initial
    x and overwrote it.  No size limit, no third answer — the first two
    versions already close a cycle."""
    txns = []
    for i in range(20):
        txns.append((f"t{i}", [("r", "x", INITIAL_VERSION),
                               ("w", "x", (f"t{i}", 1))]))
    history = build(txns)
    result = check_one_copy(history)
    assert result.ok is False
    assert result.cycle == (("t0", "ww", "x", "t1"), ("t1", "rw", "x", "t0"))
    assert result.violation == "t0 -ww x→ t1 -rw x→ t0"
    assert is_one_copy_serializable(history) is False


def test_exact_search_definitively_rejects():
    history = build([
        ("t1", [("r", "x", INITIAL_VERSION), ("w", "x", ("t1", 1))]),
        ("t2", [("r", "x", INITIAL_VERSION), ("w", "x", ("t2", 1))]),
    ])
    assert is_one_copy_serializable(history) is False


def test_boolean_form_true():
    history = build([("t1", [("w", "x", ("t1", 1))])])
    assert is_one_copy_serializable(history) is True
