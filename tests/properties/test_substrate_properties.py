"""Property-based tests for the substrates (topology, locks, storage, sim)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.locks import EXCLUSIVE, SHARED, LockManager
from repro.net.topology import CommGraph
from repro.node.storage import StorageEngine
from repro.sim import Simulator


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_clusters_always_partition_the_node_set(seed, n, steps):
    rng = random.Random(seed)
    graph = CommGraph(range(1, n + 1))
    nodes = sorted(graph.nodes)
    for _ in range(steps):
        action = rng.randrange(5)
        a, b = rng.sample(nodes, 2)
        if action == 0:
            graph.cut_link(a, b)
        elif action == 1:
            graph.heal_link(a, b)
        elif action == 2:
            graph.crash_node(a)
        elif action == 3:
            graph.recover_node(a)
        else:
            graph.partition([graph.nodes])  # heal every link
        clusters = graph.clusters()
        covered = set()
        for cluster in clusters:
            assert not (cluster & covered), "clusters overlap"
            covered |= cluster
        assert covered == set(nodes)
        # symmetry of the can-communicate relation
        for x in nodes:
            for y in nodes:
                assert graph.has_edge(x, y) == graph.has_edge(y, x)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None)
def test_crashed_node_is_always_a_trivial_cluster(seed, n):
    rng = random.Random(seed)
    graph = CommGraph(range(1, n + 1))
    victim = rng.randrange(1, n + 1)
    graph.crash_node(victim)
    assert {victim} in graph.clusters()
    assert graph.neighbors(victim) == set()


# ----------------------------------------------------------------------
# lock manager
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=5, max_value=60))
@settings(max_examples=40, deadline=None)
def test_lock_table_safety_under_random_scripts(seed, steps):
    """Invariants after every step: an X holder is alone; S holders
    coexist only with S; releases wake compatible waiters."""
    rng = random.Random(seed)
    manager = LockManager(Simulator())
    txns = [f"t{i}" for i in range(4)]
    objects = ["x", "y"]
    live_requests = []
    for _ in range(steps):
        if rng.random() < 0.7:
            txn = rng.choice(txns)
            obj = rng.choice(objects)
            mode = rng.choice([SHARED, EXCLUSIVE])
            live_requests.append(manager.acquire(txn, obj, mode))
        else:
            manager.release_all(rng.choice(txns))
        for obj in objects:
            holders = manager.holders(obj)
            modes = list(holders.values())
            if EXCLUSIVE in modes:
                assert len(holders) == 1, f"X not exclusive on {obj}"
    # Full cleanup releases everything and grants nothing dangling.
    for txn in txns:
        manager.release_all(txn)
    for obj in objects:
        assert manager.holders(obj) == {}
        assert manager.queue_length(obj) == 0


# ----------------------------------------------------------------------
# storage: the D3 catch-up property
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=19))
@settings(max_examples=50, deadline=None)
def test_log_catchup_reconstructs_the_source_exactly(seed, writes, stale_at):
    """A stale copy that missed an arbitrary suffix of writes ends up
    identical to the source after applying log_since(its own date) —
    for any sequence of (vp, counter) dates."""
    rng = random.Random(seed)
    source = StorageEngine(1)
    stale = StorageEngine(2)
    source.place("x", initial=0, date=None)
    stale.place("x", initial=0, date=None)

    date = None
    for index in range(writes):
        # Dates are monotone per copy in the real protocol: a new
        # partition has a strictly larger vp-id; within a partition the
        # write counter increases.
        if rng.random() < 0.3 or date is None:
            prev_n = date[0][0] if date else 0
            vp = (prev_n + rng.randint(1, 3), rng.randint(1, 9))
            counter = 1
        else:
            vp, counter = date[0], date[1] + 1
        date = (vp, counter)
        value = f"v{index}"
        source.write("x", value, date, version=("t", index))
        if index < min(stale_at, writes):
            stale.write("x", value, date, version=("t", index))

    missed = source.log_since("x", stale.date("x"))
    stale.apply_log("x", missed)
    assert stale.peek("x") == source.peek("x")
    assert stale.version("x") == source.version("x")


# ----------------------------------------------------------------------
# simulator determinism
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_event_order_is_deterministic(seed, count):
    def run_once():
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        for index in range(count):
            delay = rng.uniform(0.0, 10.0)
            sim.timeout(delay).add_callback(
                lambda e, i=index: fired.append((sim.now, i)))
        sim.run()
        return fired

    assert run_once() == run_once()
