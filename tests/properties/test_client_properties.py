"""Randomized lease-correctness audits: bounded staleness under churn.

The client tier's claim is C6 made operational: a lease-served read at
time t returns a version no older than the newest one committed by
t - (L + Delta).  The runtime auditor checks exactly that on every
lease-served read (plus the L <= pi grant rule and expiry), so these
properties arm it, drive random partition/heal/crash/recover schedules
through session-fronted clients, and require a clean verdict — the
same shape as the protocol-invariant properties next door.
"""

import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, FaultAction, apply_schedule
from repro.client.session import SessionSpec
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

SESSION = SessionSpec(cache_capacity=4, cache_policy="write-back",
                      lease_duration=7.5)


class ChurnSchedule:
    """Random partition/heal/crash/recover schedule from one seed."""

    def __init__(self, seed: int, events: int = 5):
        self.seed = seed
        self.events = events

    def __call__(self, cluster) -> None:
        rng = random.Random(self.seed)
        pids = list(cluster.pids)
        injector = cluster.injector
        # each fault holds until a later draw ends it: its undo, by pid
        # for a crash, is scheduled then (a new partition ends the last)
        down: dict = {}
        partition = None
        t = 10.0
        for _ in range(self.events):
            action = rng.randrange(4)
            if action == 0 and len(down) < len(pids) - 2:
                victim = rng.choice([p for p in pids if p not in down])
                (down[victim],) = apply_schedule(
                    injector, [FaultAction(t, "crash", (victim,), inf)])
            elif action == 1 and down:
                lucky = rng.choice(sorted(down))
                injector.at(t, *down.pop(lucky))
            elif action == 2:
                split = rng.randrange(1, len(pids))
                if partition is not None:
                    injector.at(t, *partition)
                (partition,) = apply_schedule(injector, [FaultAction(
                    t, "partition", (tuple(pids[:split]),
                                     tuple(pids[split:])), inf)])
            elif partition is not None:
                injector.at(t, *partition)
                partition = None
            t += rng.uniform(10.0, 30.0)
        # end healthy so grace covers convergence
        if partition is not None:
            injector.at(t, *partition)
        for pid in sorted(down):
            injector.at(t + 1.0, *down[pid])


# derandomize=True: deterministic example sequence, reproducible in CI
# (see tests/properties/test_protocol_invariants.py for the rationale).
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_no_lease_served_read_exceeds_the_staleness_bound(seed):
    """Under random churn, with cache + leases on every client, the
    auditor's lease-rule / lease-expired / lease-staleness checks stay
    clean and the protocol history stays 1SR."""
    result = run_experiment(ExperimentSpec(
        processors=4, objects=3, seed=seed, duration=120.0, grace=80.0,
        workload=WorkloadSpec(read_fraction=0.8, zipf_s=1.0,
                              mean_interarrival=8.0),
        retries=3, check=True, audit=True, txns_per_client=4,
        open_loop=bool(seed % 2),  # alternate driver modes
        session=SESSION,
        failures=ChurnSchedule(seed),
    ))
    assert result.audit_violations == (), result.audit_violations
    assert result.one_copy_ok is True, result.one_copy_violation


def make_cluster():
    cluster = Cluster(processors=3, seed=21, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    return cluster


def run_program(cluster, session, program):
    proc = cluster.sim.process(session.run_program(program, tag="p",
                                                   retries=3))
    cluster.sim.run(until=proc)
    return proc.value


def test_partition_mid_lease_serves_stale_within_bound_then_recovers():
    """The deterministic churn story: a lease-holding processor gets
    isolated, serves the (stale but in-bound) leased value until the
    view change revokes it, and reads fresh after the heal."""
    cluster = make_cluster()
    session = cluster.session(1, spec=SESSION)
    assert run_program(cluster, session, [("r", "x")]) == (True, 0)
    t0 = cluster.sim.now
    (heal,) = apply_schedule(cluster.injector, [
        FaultAction(t0 + 1.0, "partition", ((1,), (2, 3)), inf)])
    cluster.run(until=t0 + 2.0)
    # isolated but not yet detected: the lease still serves, and the
    # value's age is inside L + Delta by construction
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 0
    assert session.stats.lease_reads == 1
    assert session.stats.staleness[-1] <= session.staleness_bound
    # detection bumps p1's epoch: the lease is conservatively revoked
    cluster.run(until=t0 + 2.0 + 2 * cluster.config.pi)
    # the majority side commits a write while p1 is away

    def write_body(txn):
        yield from txn.write("x", 99)

    outcome = cluster.submit(2, write_body, retries=5,
                             backoff=2 * cluster.config.delta)
    cluster.sim.run(until=outcome)
    assert outcome.value[0], "majority partition must accept the write"
    cluster.injector.at(cluster.sim.now + 1.0, *heal)
    cluster.run(until=cluster.sim.now + 2 * cluster.config.liveness_bound)
    committed, value = run_program(cluster, session, [("r", "x")])
    assert committed and value == 99, "post-heal read must be fresh"
    assert session.lease_table.stats.revoked + \
        session.lease_table.stats.expired >= 1
    assert cluster.auditor.violations == []


def test_view_change_mid_lease_revokes_before_expiry():
    """A membership event inside the lease window refuses the serve
    even though the clock has not run out (epoch-based revocation)."""
    cluster = make_cluster()
    session = cluster.session(1, spec=SESSION)
    run_program(cluster, session, [("r", "x")])
    lease = session.lease_table.serve("x", cluster.sim.now)
    assert lease is not None
    apply_schedule(cluster.injector, [
        FaultAction(cluster.sim.now + 0.1, "crash", (3,), inf)])
    # wait for detection but stay inside the lease window? Detection
    # takes up to ~pi, which exceeds L=7.5 — so instead check that the
    # epoch mismatch (not expiry) is what kills the lease: freeze the
    # serve attempt at detection time and inspect the counters.
    epoch_before = cluster.protocol(1).state.epoch
    cluster.run(until=cluster.sim.now + 2 * cluster.config.pi)
    assert cluster.protocol(1).state.epoch > epoch_before
    assert session.lease_table.serve("x", cluster.sim.now) is None
    assert session.lease_table.stats.revoked == 1, \
        "epoch check must fire before the expiry check"
    assert cluster.auditor.violations == []
