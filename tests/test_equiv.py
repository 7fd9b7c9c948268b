"""``python -m tests.equiv``'s fingerprint diff and committed-write
digest, on hand-made fingerprints and histories."""

from repro.analysis.history import History
from tests.analysis import record_logical
from tests.equiv import _CHILD, committed_writes, diff

FINGERPRINT = {
    "committed": 10,
    "network": {"sent": 40, "dropped": 0},
    "registry": {"counters": {"msg.sent": 40, "msg.slow": 0}},
    "audit_violations": [{"kind": "a"}],
    "latency": float("nan"),
}


def copy(fingerprint):
    return {key: (copy(value) if isinstance(value, dict) else
                  [copy(v) for v in value] if isinstance(value, list) else value)
            for key, value in fingerprint.items()}


def test_equal_fingerprints_have_no_difference():
    assert diff(FINGERPRINT, copy(FINGERPRINT)) == []


def test_a_differing_value_is_named_by_its_dotted_path():
    new = copy(FINGERPRINT)
    new["registry"]["counters"]["msg.sent"] = 41
    new["audit_violations"][0]["kind"] = "b"
    assert diff(FINGERPRINT, new) == [
        "audit_violations.0.kind: 'a' != 'b'",
        "registry.counters.msg.sent: 40 != 41",
    ]


def test_a_key_on_one_side_only_is_named_with_its_side():
    old = copy(FINGERPRINT)
    new = copy(FINGERPRINT)
    del new["network"]["dropped"]
    new["registry"]["counters"]["msg.lost"] = 1
    new["audit_violations"].append({"kind": "c"})
    assert diff(old, new) == [
        "audit_violations.1: only in new",
        "network.dropped: only in old",
        "registry.counters.msg.lost: only in new",
    ]


def test_an_ignored_key_drops_it_and_everything_under_it():
    new = copy(FINGERPRINT)
    del new["network"]["dropped"]
    new["registry"]["counters"]["msg.slow"] = 3
    new["committed"] = 11
    assert diff(FINGERPRINT, new, ("network.dropped", "registry")) == [
        "committed: 10 != 11"]
    assert diff(FINGERPRINT, new,
                ("network", "registry.counters.msg.slow", "committed")) == []


def test_a_key_is_ignored_only_as_a_whole_path_segment():
    new = copy(FINGERPRINT)
    new["network"]["sent"] = 41
    assert diff(FINGERPRINT, new, ("network.se",)) == [
        "network.sent: 40 != 41"]


def run_history(*txns):
    """A history of ``(txn, status, ops)`` transactions, each op an
    ``(kind, obj, version)`` triple, begun and ended in that order."""
    history = History()
    for time, (txn, status, ops) in enumerate(txns):
        history.begin_txn(txn, origin=1, time=float(time))
        for kind, obj, version in ops:
            record_logical(history, time=float(time), txn=txn, kind=kind,
                           obj=obj, value=0, version=version)
        history.finish_txn_once(txn, status, float(time))
    return history


T1 = ("t1", "committed", [("w", "x", ("t1", 1)), ("r", "y", None)])
T2 = ("t2", "committed", [("w", "y", ("t2", 1))])


def test_the_digest_reads_only_committed_writes():
    digest = committed_writes(run_history(T1, T2))
    assert committed_writes(run_history(T1, T2)) == digest
    # a read or an aborted transaction's write does not count
    reread = ("t1", "committed", [("w", "x", ("t1", 1)), ("r", "x", None)])
    lost = ("t3", "aborted", [("w", "x", ("t3", 1))])
    assert committed_writes(run_history(reread, T2, lost)) == digest
    # another version, object or begin order does
    assert committed_writes(run_history(
        T1, ("t2", "committed", [("w", "y", ("t2", 2))]))) != digest
    assert committed_writes(run_history(
        T1, ("t2", "committed", [("w", "z", ("t2", 1))]))) != digest
    assert committed_writes(run_history(T2, T1)) != digest


def test_each_side_runs_its_own_copy_of_the_digest():
    # the child imports nothing from tests/: the old tree may lack it
    assert "def committed_writes(" in _CHILD
    assert "tests" not in _CHILD
    compile(_CHILD, "<child>", "exec")
