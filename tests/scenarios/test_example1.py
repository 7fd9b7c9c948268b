"""Example 1 (Fig. 1): the lost increment on a non-transitive graph.

The paper's first counterexample: with the A–B link cut but both still
talking to C, the naive view-based majority protocol lets two
increments of x both read 0 and both commit — serializable, not 1SR.
The virtual partitions protocol under identical connectivity loses
neither increment.
"""

import pytest

from repro.workload.scenarios import run_example1_naive, run_example1_vp


@pytest.fixture(scope="module")
def naive_outcome():
    return run_example1_naive(seed=0)


@pytest.fixture(scope="module")
def vp_outcome():
    return run_example1_vp(seed=0)


def test_naive_commits_both_increments(naive_outcome):
    assert len(naive_outcome.committed) == 2
    assert naive_outcome.aborted == []


def test_naive_loses_an_update(naive_outcome):
    # Two increments of an initially-0 counter, yet every copy holds 1.
    assert naive_outcome.lost_update
    assert all(v == 1 for v in naive_outcome.final_values.values())


def test_naive_is_serializable_but_not_one_copy(naive_outcome):
    """The exact phenomenon of Example 1: CP-serializable, non-1SR."""
    assert naive_outcome.cp_serializable
    assert naive_outcome.one_copy.ok is False
    # The lost increment as a cycle: the second increment's version
    # follows the first's on x, yet it read what the first overwrote.
    cycle = naive_outcome.one_copy.cycle
    assert len({edge[0] for edge in cycle}) == 2
    assert sorted(edge[1:3] for edge in cycle) == [("rw", "x"), ("ww", "x")]
    assert "-ww x→" in naive_outcome.one_copy.violation


def test_vp_commits_both_increments_eventually(vp_outcome):
    assert len(vp_outcome.committed) == 2


def test_vp_preserves_both_updates(vp_outcome):
    assert not vp_outcome.lost_update
    values = set(vp_outcome.final_values.values())
    assert 2 in values, f"counter must reach 2 somewhere: {vp_outcome.final_values}"


def test_vp_is_one_copy_serializable(vp_outcome):
    assert vp_outcome.one_copy.ok is True
    assert vp_outcome.cp_serializable


def test_vp_witness_orders_first_increment_first(vp_outcome):
    witness = vp_outcome.one_copy.witness
    assert witness is not None and len(witness) == 2


def test_scenarios_are_deterministic():
    again = run_example1_naive(seed=0)
    assert again.committed == run_example1_naive(seed=0).committed
    assert again.lost_update
