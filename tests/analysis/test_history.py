"""Unit tests for the history recorder, and a pin on what a run keeps."""

import copy

import pytest

from repro.analysis.history import INITIAL_VERSION, History, Join, PhysicalOp
from repro.analysis.one_copy import check_one_copy
from repro.analysis.serialization import CopyOrder
from repro.net import FaultAction
from repro.workload import ScheduledNemesis, runner
from repro.workload.hunt import (
    HuntConfig,
    campaign_spec,
    hunt_base,
    plan_campaigns,
)
from tests.analysis import record_logical
from tests.analysis.reference_search import (
    install_positions,
    search_serial_order,
)


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
    record_logical(history, time=1.0, txn="t1", kind="w", obj="x",
                   value=1, version=("t1", 1))
    history.abort_txn("t1", time=3.0, reason="lock-timeout")
    assert history.aborted()[0].abort_reason == "lock-timeout"
    assert history.committed() == []
    # no verdict reads an aborted txn's ops: they go, and stay gone
    record_logical(history, time=4.0, txn="t1", kind="r", obj="x",
                   value=1, version=("t1", 1))
    assert history.txns["t1"].logical_ops == ()


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
    copies = CopyOrder(history)
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
    # the CP reader keeps one list, in record order; a txn's or a copy's
    # ops filter it.  History keeps only the first install of x@t1.
    assert [op.time for op in copies.ops] == [1.0, 2.0, 3.0]
    ops = [op for op in copies.ops if op.txn == "t1"]
    assert [op.kind for op in ops] == ["r", "w"]
    assert {op.vpid for op in ops} == {"v1"}
    on_copy = [op for op in copies.ops if (op.obj, op.copy_pid) == ("x", 2)]
    assert on_copy == ops
    assert history.installed == {("x", ("t1", 1)): 0}


def test_logical_ops_and_read_write_sets(history):
    history.begin_txn("t1", origin=1, time=0.0)
    record_logical(history, time=1.0, txn="t1", kind="r", obj="x",
                   value=0, version=INITIAL_VERSION)
    record_logical(history, time=2.0, txn="t1", kind="w", obj="y",
                   value=9, version=("t1", 1))
    record = history.txns["t1"]
    assert [(op.time, op.kind) for op in record.logical_ops] == [
        (1.0, "r"), (2.0, "w")]
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


# -- what a run keeps ------------------------------------------------------------

FAULTS = ScheduledNemesis((
    FaultAction(20.0, "partition", ((1, 2), (3, 4)), 40.0),
    FaultAction(90.0, "crash", (2,), 30.0),
    FaultAction(130.0, "cut", (1, 3), 30.0),
))


def watched_run(monkeypatch, spec):
    """Run ``spec`` with a :class:`CopyOrder` wired before the run."""
    build = runner.build_cluster
    wired = {}

    def build_watched(spec):
        cluster = build(spec)
        wired["copies"] = CopyOrder(cluster.history)
        return cluster

    monkeypatch.setattr(runner, "build_cluster", build_watched)
    return runner.run_experiment(spec).cluster.history, wired["copies"]


def verdict_against_the_reference(history):
    """``check_one_copy`` on ``history`` — asserted equal, verdict,
    witness and cycle edges, to the checker run on the install order
    the reference reads from the CopyOrder, and its verdict to the
    reference search's."""
    result = check_one_copy(history)
    twin = copy.copy(history)
    twin.installed = install_positions(history)
    assert check_one_copy(twin) == result
    found = search_serial_order(history, keep_install_order=True)
    assert (found is not None) is result.ok
    return result


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_faulted_run_keeps_only_what_the_verdict_reads(monkeypatch, seed):
    spec = hunt_base(seed=seed, duration=180.0, grace=150.0, failures=FAULTS)
    history, copies = watched_run(monkeypatch, spec)
    assert history.committed() and history.aborted()
    assert not any(record.logical_ops for record in history.aborted())
    assert not hasattr(history, "physical_ops")
    assert set(history.installed) == {
        (op.obj, op.version) for op in copies.ops if op.kind == "w"}
    assert verdict_against_the_reference(history).ok


@pytest.mark.parametrize("campaign", [0, 3])
def test_the_naive_view_canary_cycle_is_the_reference_one(monkeypatch,
                                                          campaign):
    cfg = HuntConfig(base=hunt_base(protocol="naive-view"), campaigns=4)
    seed, actions = plan_campaigns(cfg)[campaign]
    history, _ = watched_run(monkeypatch, campaign_spec(cfg, actions, seed))
    result = verdict_against_the_reference(history)
    assert not result.ok and result.cycle
