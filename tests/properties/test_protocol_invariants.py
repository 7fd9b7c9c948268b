"""Randomized end-to-end audits: S1, S3 and 1SR under arbitrary failures.

Hypothesis drives random failure schedules and workloads through full
cluster runs and audits the recorded history against the paper's
required properties.  Fewer examples than unit tests (each example is a
whole simulation), but each is an adversarial end-to-end argument.
"""

import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, FaultAction, apply_schedule
from repro.analysis.one_copy import check_one_copy


def run_random_cluster(seed: int, n: int, event_count: int,
                       txn_count: int) -> Cluster:
    cluster = Cluster(processors=n, seed=seed)
    for index in range(3):
        holders = [(index + k) % n + 1 for k in range(min(3, n))]
        cluster.place(f"o{index}", holders=holders, initial=0)
    cluster.start()

    rng = random.Random(seed)
    pids = list(cluster.pids)
    injector = cluster.injector
    # each fault holds until a later draw ends it: its undo, by pid for
    # a crash, is scheduled then (a new partition ends the last one)
    down: dict = {}
    partition = None
    t = 5.0
    for _ in range(event_count):
        action = rng.randrange(4)
        if action == 0 and len(down) < n - 1:
            victim = rng.choice([p for p in pids if p not in down])
            (down[victim],) = apply_schedule(
                injector, [FaultAction(t, "crash", (victim,), inf)])
        elif action == 1 and down:
            lucky = rng.choice(sorted(down))
            injector.at(t, *down.pop(lucky))
        elif action == 2:
            split = rng.randrange(1, n)
            if partition is not None:
                injector.at(t, *partition)
            (partition,) = apply_schedule(injector, [FaultAction(
                t, "partition", (tuple(pids[:split]), tuple(pids[split:])),
                inf)])
        elif partition is not None:
            injector.at(t, *partition)
            partition = None
        t += rng.uniform(10.0, 40.0)

    def body(txn):
        obj = f"o{rng.randrange(3)}"
        value = yield from txn.read(obj)
        yield from txn.write(obj, (value or 0) + 1)
        return value

    for index in range(txn_count):
        pid = pids[index % len(pids)]
        outcome = cluster.submit(pid, body, retries=3, backoff=7.0)
        cluster.sim.run(until=outcome)
    # let recoveries settle
    for pid in sorted(down):
        injector.at(cluster.sim.now + 1.0, *down[pid])
    cluster.run(until=cluster.sim.now + 2 * cluster.config.liveness_bound)
    return cluster


# derandomize=True: every run (locally and in CI) audits the same
# deterministic example sequence, so a red build always reproduces.
# Fresh adversarial draws belong in longer offline sweeps — see the
# regression pins in tests/integration/test_in_doubt_regressions.py
# for seeds such sweeps have caught.
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_s1_s3_and_1sr_hold_under_random_failures(seed):
    cluster = run_random_cluster(seed, n=4, event_count=5, txn_count=5)
    history = cluster.history

    # S1: every partition committed exactly one view.
    for vpid in history.partitions_seen():
        history.view_of(vpid)  # raises AssertionError on S1 violation

    # S3: depart(p, v) happens-before the first join of any w with
    # v ≺ w and p ∈ view(w).
    departs = {}
    for time, pid, vpid in history.departs:
        departs.setdefault((pid, vpid), time)
    joins_by_vp = {}
    for time, pid, vpid, view in history.joins:
        joins_by_vp.setdefault(vpid, []).append((time, pid, view))
    for vpid, joins in joins_by_vp.items():
        first_join = min(time for time, _, _ in joins)
        view = joins[0][2]
        for other in joins_by_vp:
            if other < vpid:
                for pid in history.members_of(other) & set(view):
                    depart_time = departs.get((pid, other))
                    assert depart_time is not None
                    assert depart_time <= first_join

    # The correctness criterion itself.
    verdict = check_one_copy(history)
    assert verdict.ok is True, verdict.violation


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_committed_counter_increments_never_lost(seed):
    """Under random failures, the replicated counter's final value (on
    the surviving majority) equals the number of committed increments —
    no update is ever lost or double-applied."""
    cluster = run_random_cluster(seed, n=4, event_count=4, txn_count=6)
    committed_by_obj = {}
    for record in cluster.history.committed():
        for op in record.logical_ops:
            if op.kind == "w":
                committed_by_obj[op.obj] = committed_by_obj.get(op.obj, 0) + 1
    for obj, count in committed_by_obj.items():
        readable = [
            cluster.processor(p).store.peek(obj)[0]
            for p in cluster.placement.copies(obj)
            if cluster.protocol(p).available(obj, write=False)
            and obj not in cluster.protocol(p).state.locked
        ]
        assert count in readable or not readable, (
            f"{obj}: committed {count} increments, copies read {readable}"
        )
