"""E15 — sharding & partial replication: cost scales with degree, not n.

Full replication ties every write (and every commit's prepare round) to
the cluster size: five nodes was the practical ceiling.  With a
placement policy sharding the keyspace into per-object placements of
degree ``k`` and the directory routing accesses to copy-holders, the
transaction path should pay for ``k`` copies regardless of how many
processors exist.

The bench sweeps (via the parallel sweep engine):

* node count 5 → 50+ at fixed replication degree — transaction-path
  messages per committed transaction must stay flat (within noise);
* replication degree at a fixed 20-node cluster — the same metric must
  grow with the degree.

"Transaction-path" means the Figs. 10–12 + 2PC message kinds only
(:data:`repro.workload.runner.TXN_MESSAGE_KINDS`).  Background view
maintenance is *expected* to grow as O(n²/π) — probing is the price of
partition detection, amortized over however much work the cluster runs
— so the table reports both numbers side by side.  Every run has the
runtime invariant auditor armed and must stay 1SR-clean.
"""

from __future__ import annotations

from typing import Sequence

from repro.shard import HomeFirstPools
from repro.workload import ExperimentSpec, WorkloadSpec
from repro.workload.parallel import run_many
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

NODES = (5, 10, 20, 50)
DEGREES = (1, 3, 5)
FIXED_DEGREE = 3
DEGREE_NODES = 20
OBJECTS = 1000
TXNS_PER_CLIENT = 4
PLACEMENT = "hash-ring"
SEED = 11
SMOKE = {"nodes": (5, 8), "degrees": (1, 3), "objects": 120,
         "txns_per_client": 2}


def point_spec(n: int, degree: int, objects: int,
               txns_per_client: int) -> ExperimentSpec:
    """One scaling point: ``n`` processors, ``objects`` logical objects
    sharded at replication degree ``degree``, a fixed per-client
    transaction count (closed loop, so attempted work is paired across
    points), home-biased Zipf traffic."""
    return ExperimentSpec(
        protocol="virtual-partitions",
        processors=n, objects=objects, copies_per_object=degree,
        placement=PLACEMENT, seed=SEED,
        duration=150.0, grace=60.0,
        clients=1, txns_per_client=txns_per_client, retries=1,
        check=True, audit=True,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=3,
                              zipf_s=1.2, mean_interarrival=2.0),
        objects_for=HomeFirstPools(PLACEMENT, n, objects, degree,
                                   seed=SEED),
    )


def run(nodes: Sequence[int] = NODES, degrees: Sequence[int] = DEGREES,
        objects: int = OBJECTS, txns_per_client: int = TXNS_PER_CLIENT,
        workers=None) -> dict:
    node_points = [(n, FIXED_DEGREE) for n in nodes
                   if FIXED_DEGREE <= n]
    degree_n = max(n for n in nodes if n <= DEGREE_NODES)
    degree_points = [(degree_n, d) for d in degrees if d <= degree_n
                     and (degree_n, d) not in node_points]
    points = node_points + degree_points
    specs = [point_spec(n, d, objects, txns_per_client)
             for n, d in points]
    results = dict(zip(points, run_many(specs, workers=workers)))

    rows = []
    for (n, d), r in results.items():
        rows.append([
            n, d, r.committed, r.aborted,
            f"{r.txn_messages_per_committed_txn:.1f}",
            f"{r.messages_per_committed_txn:.1f}",
            r.one_copy_ok, len(r.audit_violations),
        ])
    report(render_table(
        ["nodes", "degree", "committed", "aborted", "txn msgs/txn",
         "total msgs/txn", "1SR", "audit viol"],
        rows,
        title=f"E15 Scaling: {objects} objects sharded by {PLACEMENT}, "
              f"Zipf home-biased clients ({txns_per_client} txns each, "
              f"seed {SEED})",
    ))
    emit_metrics("scaling", {
        f"n{n}.k{d}.{key}": float(value)
        for (n, d), r in results.items()
        for key, value in {
            "committed": r.committed,
            "txn_msgs_per_txn": r.txn_messages_per_committed_txn,
            "total_msgs_per_txn": r.messages_per_committed_txn,
        }.items()
    })
    return {"results": results, "node_points": node_points,
            "degree_points": [(degree_n, d) for d in degrees
                              if d <= degree_n],
            "txns_per_client": txns_per_client}


def check(outcome: dict) -> None:
    """Deterministic assertions (fixed seed): every run clean, cost flat
    in node count, growing in replication degree."""
    results = outcome["results"]
    for (n, d), r in results.items():
        assert r.one_copy_ok is True, f"n={n} k={d} not 1SR-clean: {r}"
        assert not r.audit_violations, (
            f"n={n} k={d} auditor violations: {r.audit_violations}")
        expected = n * outcome["txns_per_client"]
        assert r.committed >= 0.9 * expected, (
            f"n={n} k={d} committed only {r.committed}/{expected}")

    node_costs = {n: results[(n, d)].txn_messages_per_committed_txn
                  for n, d in outcome["node_points"]}
    spread = max(node_costs.values()) / min(node_costs.values())
    assert spread <= 1.25, (
        f"txn msgs/txn not flat in node count: {node_costs} "
        f"(spread {spread:.2f})")

    degree_costs = [results[point].txn_messages_per_committed_txn
                    for point in outcome["degree_points"]]
    assert all(a < b for a, b in zip(degree_costs, degree_costs[1:])), (
        f"txn msgs/txn not increasing in degree: {degree_costs}")
    if len(degree_costs) > 1:
        assert degree_costs[-1] >= 1.3 * degree_costs[0], (
            f"degree effect too weak: {degree_costs}")


def test_benchmark_scaling(benchmark):
    outcome = run_once(benchmark, lambda: run(**SMOKE))
    check(outcome)


if __name__ == "__main__":
    # --check runs the FULL sweep (check_params omitted): the cost-curve
    # assertions are calibrated to the full fixed-seed point set.
    bench_main("bench_scaling", run, check, smoke=SMOKE)
