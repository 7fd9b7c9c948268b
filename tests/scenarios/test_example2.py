"""Example 2 (Fig. 2, Tables 1–2): the stale-view reads-from cycle.

Four processors with weighted copies re-partition from {A,B}|{C,D} to
{B,C}|{A,D}; only B and D notice.  Under the naive protocol each
processor's Table-2 transaction runs entirely on local copies and all
four commit, forming the cycle T_A→T_B→T_C→T_D→T_A — serializable, not
1SR.  Property S3 prevents the cycle under the virtual partitions
protocol.
"""

import pytest

from repro.workload.scenarios import (
    EXAMPLE2_PLACEMENT,
    EXAMPLE2_TXNS,
    run_example2_naive,
    run_example2_vp,
)


@pytest.fixture(scope="module")
def naive_outcome():
    return run_example2_naive(seed=0)


@pytest.fixture(scope="module")
def vp_outcome():
    return run_example2_vp(seed=0)


def test_placement_matches_table2():
    # a², b on A; b², c on B; c², d on C; d², a on D.
    assert EXAMPLE2_PLACEMENT["a"] == {1: 2, 4: 1}
    assert EXAMPLE2_PLACEMENT["b"] == {2: 2, 1: 1}
    assert EXAMPLE2_PLACEMENT["c"] == {3: 2, 2: 1}
    assert EXAMPLE2_PLACEMENT["d"] == {4: 2, 3: 1}
    assert EXAMPLE2_TXNS == {1: ("b", "a"), 2: ("c", "b"),
                             3: ("d", "c"), 4: ("a", "d")}


def test_naive_commits_all_four(naive_outcome):
    assert len(naive_outcome.committed) == 4


def test_naive_each_txn_touched_only_local_copies(naive_outcome):
    history = naive_outcome.cluster.history
    for record in history.committed():
        touched = {op.copy_pid for op in naive_outcome.copies.ops
                   if op.txn == record.txn}
        assert touched == {record.origin}, (
            f"txn {record.txn} was supposed to stay local, touched {touched}"
        )


def test_naive_serializable_but_not_one_copy(naive_outcome):
    """The paper's sentence as an assertion: serializable, yet the four
    transactions each read what the next one overwrote."""
    assert naive_outcome.cp_serializable
    assert naive_outcome.one_copy.ok is False
    cycle = naive_outcome.one_copy.cycle
    assert len({edge[0] for edge in cycle}) == 4
    assert sorted(edge[1:3] for edge in cycle) == [
        ("rw", "a"), ("rw", "b"), ("rw", "c"), ("rw", "d")]


def test_naive_all_reads_returned_initial_values(naive_outcome):
    """The cycle exists because every read saw the pre-partition value."""
    history = naive_outcome.cluster.history
    for record in history.committed():
        reads = [op for op in record.logical_ops if op.kind == "r"]
        assert all(op.version == ("T0", 0) for op in reads)


def test_vp_never_produces_the_cycle(vp_outcome):
    assert vp_outcome.one_copy.ok is True
    assert sorted(vp_outcome.one_copy.witness) == sorted(vp_outcome.committed)
    assert vp_outcome.cp_serializable


def test_vp_aborts_rather_than_violate(vp_outcome):
    # In the final partitions at least one Table-2 transaction is
    # genuinely unavailable (its read-set majority is elsewhere), so
    # not all four can commit; whatever commits is 1SR.
    assert len(vp_outcome.committed) < 4
    assert vp_outcome.aborted


def test_vp_s3_depart_before_join(vp_outcome):
    """Audit S3 on the recorded execution: if p ∈ members(v) ∩ view(w)
    with v ≺ w, then depart(p, v) happens before any join(·, w)."""
    history = vp_outcome.cluster.history
    departs = {}
    for time, pid, vpid in history.departs:
        departs.setdefault((pid, vpid), time)
    joins_by_vp = {}
    for time, pid, vpid, view in history.joins:
        joins_by_vp.setdefault(vpid, []).append((time, pid, view))
    for vpid, joins in joins_by_vp.items():
        first_join = min(time for time, _, _ in joins)
        view = joins[0][2]
        for earlier_vp in joins_by_vp:
            if not (earlier_vp < vpid):
                continue
            for pid in history.members_of(earlier_vp) & set(view):
                depart_time = departs.get((pid, earlier_vp))
                assert depart_time is not None, (
                    f"{pid} never departed {earlier_vp} but {vpid} "
                    f"includes it in its view"
                )
                assert depart_time <= first_join, (
                    f"S3 violated: depart({pid},{earlier_vp}) at "
                    f"{depart_time} after first join of {vpid} at {first_join}"
                )
