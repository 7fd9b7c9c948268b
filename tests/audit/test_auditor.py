"""Unit tests for the runtime invariant auditor.

Each test feeds the auditor a synthetic record stream that violates (or
honours) exactly one invariant and checks the verdict — the auditor is
pure observation, so no simulator is needed.  Every record goes through
``History.record``, the one entry point protocol code reports to.
"""

from repro.analysis.history import (
    Decision, DecisionApplied, Depart, History, Join, LogicalAccess,
    LogicalOp, PhysicalOp,
)
from repro.analysis.serialization import CopyOrder
from repro.audit import InvariantAuditor
from repro.core.ids import VpId
from repro.core.views import CopyPlacement


V1 = VpId(1, 1)
V2 = VpId(2, 2)


def placement_xyz():
    placement = CopyPlacement()
    placement.place("x", [1, 2, 3])
    return placement


class FakeState:
    def __init__(self, assigned=True, cur_id=V1, lview=(1, 2, 3),
                 locked=()):
        self.assigned = assigned
        self.cur_id = cur_id
        self.lview = set(lview)
        self.locked = set(locked)


def reading(auditor, servers=()):
    """A History whose one reader is ``auditor``, which audits the
    processors ``servers`` (the cluster registers each one's state)."""
    for pid in servers:
        auditor.states[pid] = FakeState()
    history = History()
    history.readers = (auditor,)
    return history


def join(time, pid, vpid, view):
    return Join(time, pid, vpid, frozenset(view))


def access(time, pid, kind, vpid, targets):
    """Txn (1, 1)'s logical ``kind`` access of ``x`` issued at ``pid``."""
    return LogicalAccess(LogicalOp(time, (1, 1), kind, "x", 0, None), pid,
                         vpid, targets, 0)


# -- S1/S2/S3 ----------------------------------------------------------------


def test_clean_join_sequence_is_ok():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(1.0, 2, V1, {1, 2}))
    history.record(Depart(5.0, 1, V1))
    history.record(Depart(5.0, 2, V1))
    history.record(join(6.0, 1, V2, {1, 2}))
    history.record(join(6.0, 2, V2, {1, 2}))
    auditor.finalize()
    assert auditor.ok
    assert auditor.report() == "auditor: all invariants held"


def test_s1_two_views_for_one_vpid():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(1.0, 2, V1, {1, 2, 3}))
    assert [v.invariant for v in auditor.violations] == ["S1"]


def test_s2_view_must_contain_joiner():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 3, V1, {1, 2}))
    assert [v.invariant for v in auditor.violations] == ["S2"]


def test_s3_depart_after_newer_join():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(5.0, 1, V2, {1, 2}))
    history.record(Depart(7.0, 1, V1))  # too late: V2 began at 5
    auditor.finalize()
    assert [v.invariant for v in auditor.violations] == ["S3"]


def test_s3_missing_depart_flagged_at_finalize():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(5.0, 1, V2, {1, 2}))
    assert auditor.ok, "obligation is pending, not yet a violation"
    auditor.finalize()
    assert [v.invariant for v in auditor.violations] == ["S3"]


def test_s3_same_instant_depart_and_join_is_legal():
    """Fig. 5/6 commit the new view and depart the old one in the same
    handler — the same-instant race must not be flagged."""
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(5.0, 1, V2, {1, 2}))
    history.record(Depart(5.0, 1, V1))
    auditor.finalize()
    assert auditor.ok


def test_s3_checked_against_late_joiner_of_old_partition():
    """The member of an old view that joins only after a newer view
    already includes it is caught by the reverse direction."""
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(5.0, 1, V2, {1, 2}))
    history.record(join(6.0, 1, V1, {1, 2}))
    auditor.finalize()
    assert "S3" in [v.invariant for v in auditor.violations]


# -- R1 / R3 (logical accesses) ----------------------------------------------


def test_r1_access_in_minority_view():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor, servers=(1,))
    history.record(join(1.0, 1, V1, {1}))
    auditor.violations.clear()  # the S2-clean join; isolate the R1 check
    history.record(access(2.0, 1, "r", V1, (1,)))
    assert [v.invariant for v in auditor.violations] == ["R1"]


def test_r3_write_must_hit_all_in_view_copies():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor, servers=(1,))
    history.record(join(1.0, 1, V1, {1, 2, 3}))
    history.record(access(2.0, 1, "w", V1, (1, 2)))  # missing 3
    assert [v.invariant for v in auditor.violations] == ["R3"]


def test_clean_read_and_write_pass():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor, servers=(1,))
    history.record(join(1.0, 1, V1, {1, 2, 3}))
    history.record(access(2.0, 1, "r", V1, (2,)))
    history.record(access(3.0, 1, "w", V1, (1, 2, 3)))
    assert auditor.ok


def test_unknown_vpid_is_skipped_not_flagged():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor, servers=(1,))
    history.record(access(2.0, 1, "r", V1, (1,)))
    assert auditor.ok


# -- R5 / view match / placement (physical accesses) -------------------------


def served_read(pid=1, vpid=V1):
    """The op a server records for a read of ``x`` it served."""
    return PhysicalOp(time=2.0, txn=(1, 1), kind="r", obj="x",
                      copy_pid=pid, value=0, version=None, vpid=vpid)


def test_r5_serving_a_locked_copy():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    auditor.states[1] = FakeState(locked={"x"})
    history.record(served_read())
    assert [v.invariant for v in auditor.violations] == ["R5"]


def test_view_match_serving_foreign_partition():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    auditor.states[1] = FakeState(cur_id=V2)
    history.record(served_read())
    assert [v.invariant for v in auditor.violations] == ["view-match"]


def test_placement_serving_unheld_object():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    auditor.states[4] = FakeState(lview={1, 2, 3, 4})
    history.record(served_read(pid=4))
    assert [v.invariant for v in auditor.violations] == ["placement"]


def test_clean_physical_access_passes():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    auditor.states[1] = FakeState()
    history.record(served_read())
    assert auditor.ok


def test_server_without_state_is_not_audited():
    """A baseline's processor (no ``states`` entry, ``vpid=None``) is not
    judged — neither its served ops, nor its logical accesses, nor its
    decisions: nothing is flagged and nothing enters the context."""
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    auditor.states[1] = FakeState(locked={"x"})
    history.record(served_read(pid=4, vpid=None))
    history.record(access(2.0, 4, "w", None, (4,)))
    history.record(Decision(2.0, 4, (1, 1), "commit"))
    history.record(Decision(2.5, 4, (1, 1), "abort"))
    assert auditor.ok
    history.record(join(3.0, 3, V1, {1, 2}))
    assert [c["event"] for c in auditor.violations[0].context] == ["join"]


def test_history_hands_each_served_op_to_the_auditor():
    auditor = InvariantAuditor(placement_xyz())
    history = reading(auditor)
    copies = CopyOrder(history)
    auditor.states[1] = FakeState(locked={"x"})
    history.record(served_read())
    assert history.readers == (auditor, copies)
    assert copies.ops == [served_read()]
    assert [v.invariant for v in auditor.violations] == ["R5"]
    assert auditor.violations[0].context[-1]["event"] == "physical"


# -- commit safety --------------------------------------------------------------


def test_2pc_decision_flip_flagged():
    auditor = InvariantAuditor()
    history = reading(auditor, servers=(1, 2, 3))
    history.record(Decision(1.0, 1, (1, 1), "undecided"))
    history.record(Decision(2.0, 1, (1, 1), "abort"))
    history.record(Decision(3.0, 1, (1, 1), "commit"))
    # the flip itself plus the conflict with the first decided outcome
    assert {v.invariant for v in auditor.violations} == {"commit-decision"}
    assert "flipped" in auditor.violations[0].detail


def test_2pc_undecided_then_commit_is_clean():
    auditor = InvariantAuditor()
    history = reading(auditor, servers=(1, 2, 3))
    history.record(Decision(1.0, 1, (1, 1), "undecided"))
    history.record(Decision(2.0, 1, (1, 1), "commit"))
    history.record(DecisionApplied(3.0, 2, (1, 1), "commit"))
    assert auditor.ok


def test_2pc_divergent_applied_outcomes():
    auditor = InvariantAuditor()
    history = reading(auditor, servers=(1, 2, 3))
    history.record(DecisionApplied(1.0, 2, (1, 1), "abort"))
    history.record(DecisionApplied(2.0, 3, (1, 1), "commit"))
    assert [v.invariant for v in auditor.violations] == ["commit-apply"]


def test_2pc_commit_decided_after_applied_abort():
    """The coordinator-side R4 race the hunter caught: a processor
    already rolled the transaction back, then commit was decided."""
    auditor = InvariantAuditor()
    history = reading(auditor, servers=(1, 2, 3))
    history.record(Decision(1.0, 1, (1, 1), "undecided"))
    history.record(DecisionApplied(2.0, 1, (1, 1), "abort"))
    history.record(Decision(3.0, 1, (1, 1), "commit"))
    assert "commit-decision" in [v.invariant for v in auditor.violations]


def test_2pc_apply_contradicting_coordinator_log():
    auditor = InvariantAuditor()
    history = reading(auditor, servers=(1, 2, 3))
    history.record(Decision(1.0, 1, (1, 1), "commit"))
    history.record(DecisionApplied(2.0, 2, (1, 1), "abort"))
    assert [v.invariant for v in auditor.violations] == ["commit-apply"]


# -- plumbing ----------------------------------------------------------------


def test_violation_carries_context_and_serializes():
    auditor = InvariantAuditor()
    history = reading(auditor)
    history.record(join(1.0, 1, V1, {1, 2}))
    history.record(join(1.5, 3, V1, {1, 2}))
    violation = auditor.violations[0]
    assert violation.context, "violations must carry recent trace context"
    data = violation.to_dict()
    assert data["invariant"] == "S2"
    assert data["context"][-1]["event"] == "join"
    assert "S2" in str(violation)


def test_audited_cluster_run_stays_clean():
    """End-to-end: a partitioned-and-healed VP run audits clean."""
    from repro import Cluster, FaultAction, apply_schedule

    cluster = Cluster(processors=3, seed=7, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [
        FaultAction(30.0, "partition", ((1, 2), (3,)), 50.0)])
    outcomes = [cluster.write_once(1, "x", 1)]
    cluster.run(until=200.0)
    cluster.auditor.finalize()
    assert cluster.auditor.ok, cluster.auditor.report()
    assert outcomes[0].value[0]
