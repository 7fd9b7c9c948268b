"""The four workloads, as :class:`ExperimentSpec` builders.

Every cluster has 5 nodes, fixed one-way latency delta = 1 tick and
probe period pi = 10 ticks, so the liveness bound is Delta = pi +
8*delta = 18 ticks.  One seed feeds ``ExperimentSpec.seed``; the
program sees only the inputs generated from it.

Every workload runs ``retries=0``: one program is one attempt, so
``commit_frac`` is committed programs over issued programs.  Retrying
clients were measured and rejected for ``fault-churn`` — see the
"Workloads" section of ``ledger/README.md``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.client.session import SessionSpec
from repro.core.config import ProtocolConfig
from repro.net.nemesis import FaultAction
from repro.workload.generator import WorkloadSpec
from repro.workload.hunt import ScheduledNemesis
from repro.workload.runner import ExperimentSpec

NODES = 5
CLIENTS_PER_NODE = 2
#: sim ticks after the last arrival for in-flight programs to finish
GRACE = 80.0

#: fault-churn cycle: a partition, then a crash of node 2
FAULT_PERIOD = 120.0
PARTITION = ((1, 2, 3), (4, 5))
PARTITION_HOLD = 40.0
CRASH_PID = 2
CRASH_AFTER = 60.0
CRASH_HOLD = 25.0

#: sim ticks each workload issues programs for; sized so every rep
#: commits >= 1 000 programs (p99 then has >= 10 samples beyond it)
DURATION = {
    "steady-rw": 1500.0,
    "read-lease": 3000.0,
    "shard-durable": 1500.0,
    "fault-churn": 1320.0,
}


def fault_schedule(duration: float, first: float = 20.0) -> tuple:
    """Whole fault cycles that start at ``first`` and end by ``duration``."""
    actions = []
    start = first
    while start + FAULT_PERIOD <= duration:
        actions.append(FaultAction(time=start, kind="partition",
                                   args=PARTITION, hold=PARTITION_HOLD))
        actions.append(FaultAction(time=start + CRASH_AFTER, kind="crash",
                                   args=(CRASH_PID,), hold=CRASH_HOLD))
        start += FAULT_PERIOD
    return tuple(actions)


def fault_instants(actions) -> list:
    """``(time, majority_pids)`` at every fault and heal instant.

    ``majority_pids`` are the processors that can still form a majority
    view once the instant's change has been applied; the schedule never
    overlaps two faults, so a heal restores the whole cluster.
    """
    everyone = frozenset(range(1, NODES + 1))
    instants = []
    for action in actions:
        if action.kind == "partition":
            during = frozenset(max(action.args, key=len))
        elif action.kind == "crash":
            during = everyone - {action.args[0]}
        else:
            raise ValueError(f"unplanned fault kind {action.kind!r}")
        instants.append((action.time, during))
        instants.append((action.time + action.hold, everyone))
    return sorted(instants, key=lambda pair: pair[0])


def build(name: str, seed: int, scale: float = 1.0) -> ExperimentSpec:
    """The spec of workload ``name``; ``scale`` shortens the run."""
    duration = DURATION[name] * scale
    common = dict(processors=NODES, clients=CLIENTS_PER_NODE, seed=seed,
                  duration=duration, grace=GRACE, retries=0)
    if name == "steady-rw":
        return ExperimentSpec(
            objects=200,
            workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=4,
                                  mean_interarrival=2.0),
            **common)
    if name == "read-lease":
        return ExperimentSpec(
            objects=200, open_loop=True,
            workload=WorkloadSpec(read_fraction=0.95, ops_per_txn=2,
                                  zipf_s=1.2, mean_interarrival=4.0),
            session=SessionSpec(cache_capacity=32, cache_policy="write-back",
                                lease_duration=10.0),
            **common)
    if name == "shard-durable":
        return ExperimentSpec(
            objects=1000, copies_per_object=3, placement="hash-ring",
            directory="cached", directory_capacity=128,
            commit_backend="paxos",
            config=ProtocolConfig(storage_append_cost=0.05,
                                  storage_sync_cost=0.2,
                                  checkpoint_every=500, log_retain=8,
                                  catchup="log"),
            workload=WorkloadSpec(read_fraction=0.2, ops_per_txn=4,
                                  zipf_s=0.4, mean_interarrival=2.0),
            **common)
    if name == "fault-churn":
        return ExperimentSpec(
            objects=40, audit=True, open_loop=True,
            workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=2,
                                  mean_interarrival=4.0),
            failures=ScheduledNemesis(fault_schedule(duration)),
            **common)
    raise KeyError(f"unknown workload {name!r}")


def twin(name: str, seed: int) -> ExperimentSpec:
    """A small copy of ``name`` that the exact 1SR checker can decide.

    One client per node and two programs each (three under faults,
    where most abort) keep the committed count within the checker's
    exact limit (14), so the verdict is never "inconclusive"; the
    auditor is armed on every twin.  The twin's first partition starts
    at tick 15: early programs commit before it, later ones meet it.
    """
    spec = replace(build(name, seed), clients=1, txns_per_client=2,
                   duration=FAULT_PERIOD + 15.0, check=True, audit=True)
    if spec.failures is not None:
        spec = replace(spec, txns_per_client=3, failures=ScheduledNemesis(
            fault_schedule(spec.duration, first=15.0)))
    return spec
