"""Unit tests for copy placement and the weighted majority rule (R1)."""

import itertools

import pytest

from repro.core.views import CopyPlacement, weighted_majority
from repro.workload.scenarios import EXAMPLE2_PLACEMENT


@pytest.fixture()
def placement():
    p = CopyPlacement()
    p.place("x", holders=[1, 2, 3])                 # equal weights
    p.place("a", holders={1: 2, 4: 1})              # Example 2's a², a
    p.place("big", holders=[2, 3], size=500)
    return p


def test_copies_and_weights(placement):
    assert placement.copies("x") == {1, 2, 3}
    assert placement.weight("x", 2) == 1
    assert placement.weight("x", 99) == 0
    assert placement.weight("a", 1) == 2
    assert sum(placement.weights("a").values()) == 3


def test_unweighted_majority(placement):
    assert placement.accessible("x", {1, 2})
    assert not placement.accessible("x", {1})
    assert placement.accessible("x", {1, 2, 3, 4})


def test_weighted_majority_example2_shape(placement):
    # a has weight 2 at p1: p1 alone is a majority of total weight 3.
    assert placement.accessible("a", {1})
    assert not placement.accessible("a", {4})
    assert placement.accessible("a", {4, 1})


def test_even_split_is_not_a_majority():
    placement = CopyPlacement()
    placement.place("y", holders=[1, 2, 3, 4])
    assert not placement.accessible("y", {1, 2})  # 2 of 4: not strict
    assert placement.accessible("y", {1, 2, 3})


def test_accessible_objects_with_local_filter(placement):
    # the local set restricts which objects are considered at all
    accessible = placement.accessible_objects({1, 2, 3}, local={"x", "big"})
    assert accessible == {"x", "big"}
    # without the filter "a" also qualifies (p1's weight-2 copy in view)
    assert placement.accessible("a", {1, 2, 3})


def test_accessible_objects_unfiltered(placement):
    assert placement.accessible_objects({1, 2, 3}) == {"x", "a", "big"}


def test_local_objects(placement):
    assert placement.local_objects(1) == {"x", "a"}
    assert placement.local_objects(3) == {"x", "big"}
    assert placement.local_objects(99) == set()


def test_holders_by_distance(placement):
    distance = {1: 0.0, 2: 0.4, 3: 0.2}.__getitem__
    assert placement.holders_by_distance("x", {1, 2, 3}, distance) == [1, 3, 2]


def test_holders_by_distance_restricted_to_view(placement):
    distance = {1: 0.0, 2: 0.4, 3: 0.2}.__getitem__
    assert placement.holders_by_distance("x", {2, 3}, distance) == [3, 2]


def test_holders_by_distance_tie_breaks_on_pid(placement):
    assert placement.holders_by_distance("x", {1, 2, 3},
                                         lambda _q: 1.0) == [1, 2, 3]


def test_size(placement):
    assert placement.size("big") == 500
    assert placement.size("x") == 1


def test_validation():
    placement = CopyPlacement()
    placement.place("x", holders=[1])
    with pytest.raises(KeyError):
        placement.place("x", holders=[2])
    with pytest.raises(ValueError):
        placement.place("bad", holders={})
    with pytest.raises(ValueError):
        placement.place("bad", holders={1: 0})
    with pytest.raises(ValueError):
        placement.place("bad", holders=[1], size=0)
    with pytest.raises(KeyError):
        placement.copies("ghost")


def test_weights_accessor(placement):
    assert dict(placement.weights("a")) == {1: 2, 4: 1}
    with pytest.raises(KeyError, match="ghost"):
        placement.weights("ghost")


def test_place_rejects_unknown_members():
    placement = CopyPlacement()
    with pytest.raises(ValueError) as excinfo:
        placement.place("x", holders=[1, 7, 9], members=[1, 2, 3])
    message = str(excinfo.value)
    assert "not cluster members" in message
    assert "[7, 9]" in message and "[1, 2, 3]" in message


def test_place_reports_bad_holder_types():
    placement = CopyPlacement()
    with pytest.raises(ValueError, match="processor ids"):
        placement.place("x", holders=["p-one"])


def test_place_many_installs_everything():
    placement = CopyPlacement()
    placement.place_many({"x": [1, 2], "y": {3: 2, 1: 1}}, size=4,
                         members=[1, 2, 3])
    assert placement.objects == {"x", "y"}
    assert placement.weight("y", 3) == 2
    assert placement.size("x") == 4


def test_place_many_is_all_or_nothing():
    placement = CopyPlacement()
    placement.place("x", holders=[1])
    with pytest.raises(ValueError) as excinfo:
        placement.place_many({"x": [2], "y": [1], "z": {1: 0}},
                             members=[1, 2])
    message = str(excinfo.value)
    # every problem is reported, and nothing was installed
    assert "2 of 3 objects" in message
    assert "'x'" in message and "'z'" in message
    assert placement.objects == {"x"}


def test_place_many_truncates_long_problem_lists():
    placement = CopyPlacement()
    assignments = {f"bad{i}": [99] for i in range(8)}
    with pytest.raises(ValueError, match=r"and 3 more"):
        placement.place_many(assignments, members=[1])


def test_place_many_failure_leaves_weights_views_untouched():
    placement = CopyPlacement()
    placement.place("x", holders={1: 2, 2: 1})
    view = placement.weights("x")
    before = dict(view)
    with pytest.raises(ValueError):
        placement.place_many({"y": [1, 2], "x": [3]}, members=[1, 2, 3])
    # the failed batch installed nothing — not even its valid entries —
    # and the live weights() view still reads the old data
    assert placement.objects == {"x"}
    assert dict(view) == before == dict(placement.weights("x"))


def test_place_many_single_problem_names_the_object():
    placement = CopyPlacement()
    with pytest.raises(ValueError, match=r"invalid placement for 'bad'"):
        placement.place_many({"good": [1], "bad": {1: -1}}, members=[1])
    assert placement.objects == set()


# -- online resharding: epochs, staged migrations ----------------------------


def test_epoch_defaults_to_zero(placement):
    assert placement.epoch_of("x") == 0
    assert placement.flips == 0


def test_begin_commit_migration_flips_atomically(placement):
    placement.begin_migration("x", {2: 1, 4: 1}, members=[1, 2, 3, 4])
    # staged holders are visible only through pending_copies
    assert placement.pending_copies("x") == {2, 4}
    assert placement.copies("x") == {1, 2, 3}
    assert placement.epoch_of("x") == 0

    old = placement.commit_migration("x")
    assert dict(old) == {1: 1, 2: 1, 3: 1}
    assert placement.copies("x") == {2, 4}
    assert placement.epoch_of("x") == 1
    assert placement.pending_copies("x") == set()
    assert placement.flips == 1


def test_migration_staging_errors(placement):
    with pytest.raises(KeyError, match="ghost"):
        placement.begin_migration("ghost", [1])
    placement.begin_migration("x", [4])
    with pytest.raises(KeyError, match="already pending"):
        placement.begin_migration("x", [5])
    with pytest.raises(KeyError, match="no migration pending"):
        placement.commit_migration("a")
    with pytest.raises(ValueError, match="not cluster members"):
        placement.begin_migration("a", [9], members=[1, 2, 3, 4])


def _r1_by_object(placement, view):
    """R1 asked object by object, the definition the cache must match."""
    return {obj for obj in placement.objects
            if weighted_majority(placement.weights(obj), view)}


VIEWS = [set(view) for size in range(6)
         for view in itertools.combinations(range(1, 6), size)]


def test_cached_r1_set_is_the_per_object_predicate():
    placement = CopyPlacement()
    placement.place_many(EXAMPLE2_PLACEMENT)
    for _ in range(2):  # the second pass reads the cache
        for view in VIEWS:
            expected = _r1_by_object(placement, view)
            assert placement.accessible_objects(view) == expected
            assert placement.accessible_objects(view, local={"a", "c", "z"}) \
                == expected & {"a", "c"}


def test_cached_r1_set_follows_a_new_placement():
    placement = CopyPlacement()
    placement.place_many(EXAMPLE2_PLACEMENT)
    assert placement.accessible_objects({5}) == set()
    placement.place("e", holders={5: 3, 1: 1})
    for view in VIEWS:
        assert placement.accessible_objects(view) == \
            _r1_by_object(placement, view)
    assert placement.accessible_objects({5}) == {"e"}
    placement.place_many({"f": [4, 5], "g": [5]})
    assert placement.accessible_objects({5}) == {"e", "g"}


def test_cached_r1_set_follows_a_migration_flip():
    placement = CopyPlacement()
    placement.place_many(EXAMPLE2_PLACEMENT)
    assert "a" in placement.accessible_objects({1})  # a's weight 2 on p1
    placement.begin_migration("a", {4: 2, 5: 1})
    # staged weights are not routed on until the flip
    assert "a" in placement.accessible_objects({1})
    assert "a" not in placement.accessible_objects({4})
    placement.commit_migration("a")
    for view in VIEWS:
        assert placement.accessible_objects(view) == \
            _r1_by_object(placement, view)
    assert "a" not in placement.accessible_objects({1})
    assert "a" in placement.accessible_objects({4})
