"""Unit tests for the placement policies."""

import pytest

from repro.shard.policy import (
    POLICIES,
    HashRingPolicy,
    WeightedHomePolicy,
    make_policy,
)

OBJECTS = [f"o{i}" for i in range(200)]
PIDS = list(range(1, 21))


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_assign_is_deterministic(name):
    a = make_policy(name, degree=3).assign(OBJECTS, PIDS)
    b = make_policy(name, degree=3).assign(OBJECTS, PIDS)
    assert a == b


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_degree_respected(name):
    assignments = make_policy(name, degree=3).assign(OBJECTS, PIDS)
    assert set(assignments) == set(OBJECTS)
    for obj, weights in assignments.items():
        assert len(weights) == 3, obj
        assert set(weights) <= set(PIDS)
        assert all(w >= 1 for w in weights.values())


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_processor_gets_some_primaries(name):
    """No policy may starve a processor: with 10x more objects than
    nodes, every node should be the primary (first key) of a few."""
    assignments = make_policy(name, degree=3).assign(OBJECTS, PIDS)
    primaries = {next(iter(weights)) for weights in assignments.values()}
    assert primaries == set(PIDS)


def test_validation_errors():
    with pytest.raises(ValueError, match="degree"):
        make_policy("hash-ring", degree=0)
    with pytest.raises(ValueError, match="empty cluster"):
        make_policy("hash-ring").assign(OBJECTS, [])
    with pytest.raises(ValueError, match="exceeds"):
        make_policy("hash-ring", degree=5).assign(OBJECTS, [1, 2, 3])
    with pytest.raises(KeyError, match="unknown placement policy"):
        make_policy("round-robin")
    with pytest.raises(ValueError, match="vnodes"):
        HashRingPolicy(vnodes=0)


def test_hash_ring_elasticity():
    """Adding one processor must move only a fraction of the objects —
    the consistent-hashing argument for cheap cluster growth."""
    before = HashRingPolicy(degree=3).assign(OBJECTS, PIDS)
    after = HashRingPolicy(degree=3).assign(OBJECTS, PIDS + [21])
    moved = sum(before[obj] != after[obj] for obj in OBJECTS)
    assert 0 < moved < 0.5 * len(OBJECTS)


def test_weighted_home_reproduces_example2():
    """With 4 processors and degree 2 the policy is exactly the paper's
    a²b / b²c / c²d / d²a placement."""
    assignments = WeightedHomePolicy(degree=2).assign(
        ["a", "b", "c", "d"], [1, 2, 3, 4])
    assert assignments == {
        "a": {1: 2, 2: 1},
        "b": {2: 2, 3: 1},
        "c": {3: 2, 4: 1},
        "d": {4: 2, 1: 1},
    }


def test_weighted_home_majority_shape():
    """Home copy alone outweighs all light copies together."""
    assignments = WeightedHomePolicy(degree=4).assign(OBJECTS, PIDS)
    for weights in assignments.values():
        home = next(iter(weights))
        total = sum(weights.values())
        assert total == 2 * 4 - 1
        assert 2 * weights[home] > total
        assert 2 * (total - weights[home]) < total


def test_weighted_home_primary_first():
    assignments = WeightedHomePolicy(degree=3).assign(OBJECTS, PIDS)
    for weights in assignments.values():
        first = next(iter(weights))
        assert weights[first] == 3


def test_make_policy_passes_kwargs():
    policy = make_policy("hash-ring", degree=2, vnodes=8)
    assert isinstance(policy, HashRingPolicy) and policy.vnodes == 8
