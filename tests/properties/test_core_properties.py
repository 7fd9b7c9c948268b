"""Property-based tests for the protocol's algebraic foundations."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import VpId
from repro.core.views import CopyPlacement, nearest_first

vp_ids = st.builds(VpId, st.integers(min_value=0, max_value=50),
                   st.integers(min_value=1, max_value=9))


@given(vp_ids, vp_ids)
def test_vpid_trichotomy(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(vp_ids, vp_ids, vp_ids)
def test_vpid_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


@given(vp_ids, st.integers(min_value=1, max_value=9))
def test_successor_strictly_increases(vpid, pid):
    successor = vpid.successor(pid)
    assert vpid < successor
    assert successor.pid == pid


@given(st.lists(vp_ids, min_size=1, max_size=20))
def test_max_of_successors_is_unique_winner(ids):
    """Among any set of concurrently minted successors of seen ids,
    exactly one is the maximum — the basis of creation arbitration."""
    minted = [vpid.successor(pid) for vpid in ids
              for pid in range(1, 4)]
    top = max(minted)
    assert sum(1 for m in minted if m == top) == 1 or \
        minted.count(top) == len([m for m in minted if m == top])
    # the winner beats every original id, so monitors accept it
    assert all(top > original for original in ids)


placements = st.dictionaries(
    st.integers(min_value=1, max_value=8),      # pid
    st.integers(min_value=1, max_value=4),      # weight
    min_size=1, max_size=8,
)
views = st.sets(st.integers(min_value=1, max_value=10), max_size=10)


@given(placements, views, views)
def test_two_majorities_always_share_a_copy(weights, view_a, view_b):
    """The heart of rule R1's safety: two views that each hold a
    weighted majority of an object's copies intersect on a holder, so
    two partitions can never both write the object."""
    placement = CopyPlacement()
    placement.place("x", holders=weights)
    if placement.accessible("x", view_a) and placement.accessible("x", view_b):
        holders = placement.copies("x")
        assert (view_a & holders) & (view_b & holders), (
            f"disjoint majorities: {view_a}, {view_b} over {weights}"
        )


@given(placements, views, st.sets(st.integers(min_value=1, max_value=10),
                                  max_size=4))
def test_accessibility_is_monotone_in_the_view(weights, view, extra):
    """Growing a view never loses access (R1 is monotone)."""
    placement = CopyPlacement()
    placement.place("x", holders=weights)
    if placement.accessible("x", view):
        assert placement.accessible("x", view | extra)


@given(placements)
def test_disjoint_views_cannot_both_have_majority(weights):
    """Partition-disjoint views: at most one side is a majority."""
    placement = CopyPlacement()
    placement.place("x", holders=weights)
    holders = sorted(placement.copies("x"))
    for cut in range(len(holders) + 1):
        side_a, side_b = set(holders[:cut]), set(holders[cut:])
        both = (placement.accessible("x", side_a)
                and placement.accessible("x", side_b))
        assert not both


@given(placements, st.integers(min_value=1, max_value=10))
def test_holders_by_distance_is_a_permutation_of_in_view_holders(
        weights, seed):
    import random

    placement = CopyPlacement()
    placement.place("x", holders=weights)
    rng = random.Random(seed)
    view = {p for p in range(1, 11) if rng.random() < 0.7}
    distance = {p: rng.random() for p in range(1, 11)}
    ordered = nearest_first(placement.weights("x"), view, distance.__getitem__)
    assert set(ordered) == placement.copies("x") & view
    assert all(distance[a] <= distance[b]
               for a, b in zip(ordered, ordered[1:]))
