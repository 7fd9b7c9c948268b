"""Unit tests for virtual partition identifiers."""

import pickle

import pytest

from repro.core.ids import VpId, initial_vp_id
from repro.obs.events import jsonable


def test_total_order_by_sequence_then_pid():
    assert VpId(1, 5) < VpId(2, 1)
    assert VpId(2, 1) < VpId(2, 5)
    assert not VpId(2, 5) < VpId(2, 5)


def test_equality_and_hash():
    assert VpId(3, 2) == VpId(3, 2)
    assert hash(VpId(3, 2)) == hash(VpId(3, 2))
    assert VpId(3, 2) != VpId(3, 1)


def test_successor_is_strictly_greater_for_any_pid():
    vpid = VpId(4, 9)
    for pid in (1, 9, 100):
        assert vpid < vpid.successor(pid)


def test_successor_bumps_sequence_and_stamps_pid():
    assert VpId(4, 9).successor(2) == VpId(5, 2)


def test_initial_id():
    assert initial_vp_id(7) == VpId(0, 7)


def test_negative_sequence_rejected():
    with pytest.raises(ValueError):
        VpId(-1, 1)


def test_ordering_against_other_types_raises():
    with pytest.raises(TypeError):
        _ = VpId(1, 1) < 42


def test_sorted_is_creation_order():
    ids = [VpId(2, 1), VpId(1, 9), VpId(2, 3), VpId(0, 2)]
    assert sorted(ids) == [VpId(0, 2), VpId(1, 9), VpId(2, 1), VpId(2, 3)]


def test_repr_is_compact():
    assert repr(VpId(3, 4)) == "vp(3,4)"


def test_frozen():
    vpid = VpId(1, 1)
    with pytest.raises(AttributeError):
        vpid.n = 5  # type: ignore[misc]


GRID = [VpId(n, pid) for n in (0, 1, 2, 7, 100) for pid in (0, 1, 3, 9)]


def test_order_is_lexicographic_on_n_then_pid():
    for a in GRID:
        for b in GRID:
            assert (a < b) == ((a.n, a.pid) < (b.n, b.pid))
            assert (a <= b) == ((a.n, a.pid) <= (b.n, b.pid))
            assert (a == b) == ((a.n, a.pid) == (b.n, b.pid))


def test_hash_is_the_plain_pair_hash():
    # set and dict iteration orders of vp-ids depend on it
    for vpid in GRID:
        assert hash(vpid) == hash((vpid.n, vpid.pid))


def test_fields_repr_and_successor_over_the_grid():
    for n in (0, 1, 2, 7, 100):
        for pid in (0, 1, 3, 9):
            vpid = VpId(n, pid)
            assert (vpid.n, vpid.pid) == (n, pid)
            assert repr(vpid) == str(vpid) == f"vp({n},{pid})"
            assert vpid.successor(4) == VpId(n + 1, 4)
            assert type(vpid.successor(4)) is VpId


def test_trace_renders_a_vpid_as_its_repr():
    for vpid in GRID:
        assert jsonable(vpid) == repr(vpid)
    assert jsonable({"v": [VpId(2, 1)]}) == {"v": ["vp(2,1)"]}


def test_pickle_round_trip():
    # the run_many pool ships vp-ids between processes
    for vpid in GRID:
        back = pickle.loads(pickle.dumps(vpid))
        assert back == vpid and type(back) is VpId and repr(back) == repr(vpid)


def test_negative_sequence_rejected_for_any_pid():
    for pid in (0, 1, 9):
        with pytest.raises(ValueError):
            VpId(-1, pid)
        with pytest.raises(ValueError):
            VpId(n=-5, pid=pid)
