"""E19 — online resharding: objects moved vs. transactions disturbed.

A 20-node hash-ring cluster grows to 25 nodes while transactions run.
The migration engine executes the placement change live: install the
new copies through the §6 catch-up path, flip each directory entry
under a placement epoch, retire the old copies.  Two cells, same seed:

* ``quiet`` — the expansion races nothing but the workload;
* ``partition`` — a minority block is cut out of the network across
  the cutover window and healed mid-migration, so installs stall and
  retry while the coordinator keeps draining the plan.

The headline numbers are the two costs a production resharding story
owes: **objects moved** (must equal the hash ring's bounded-movement
prediction — the policy diff between the 20- and 25-member
assignments, nowhere near all objects) and **transactions disturbed**
(R4 stale-placement aborts: transactions that raced a flip and retried
— never a stale read).  Every run has the auditor armed and must stay
1SR-clean, partitions or not.
"""

from __future__ import annotations

from repro.net import FaultAction
from repro.shard import ReshardAction, make_policy, object_names
from repro.workload import ExperimentSpec, ScheduledNemesis, WorkloadSpec
from repro.workload.parallel import run_many
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

BASE = 20
SPARES = 5
OBJECTS = 120
DEGREE = 3
SEED = 19
RESHARD_AT = 60.0
# the engine drips one object at a time (bounded disturbance beats
# speed), so the run must span prediction × per-object cutover time
DURATION = 800.0
TXNS_PER_CLIENT = 30
PLACEMENT = "hash-ring"
SMOKE = {"base": 6, "spares": 2, "objects": 20, "txns_per_client": 8,
         "duration": 280.0, "reshard_at": 30.0}


def movement_prediction(base: int, spares: int, objects: int,
                        degree: int) -> int:
    """Objects the policy reassigns when the membership grows — the
    bound the engine's moved-object count must meet exactly."""
    policy = make_policy(PLACEMENT, degree=degree)
    names = object_names(objects)
    before = policy.assign(names, list(range(1, base + 1)))
    after = policy.assign(names, list(range(1, base + spares + 1)))
    return sum(1 for obj in names if before[obj] != after[obj])


def cell_spec(cell: str, base: int, spares: int, objects: int,
              degree: int, txns_per_client: int, duration: float,
              reshard_at: float, seed: int) -> ExperimentSpec:
    total = base + spares
    failures = None
    if cell == "partition":
        # cut the two highest *base* pids — copy-holders mid-migration
        # — a delta after the reshard starts; heal while it still runs
        cut = (base - 1, base)
        rest = tuple(p for p in range(1, total + 1) if p not in cut)
        failures = ScheduledNemesis((FaultAction(
            reshard_at + 4.0, "partition", (rest, cut), 36.0),))
    return ExperimentSpec(
        protocol="virtual-partitions",
        processors=total, objects=objects, copies_per_object=degree,
        placement=PLACEMENT, directory="cached", seed=seed,
        duration=duration, grace=60.0,
        clients=1, txns_per_client=txns_per_client, retries=2,
        check=True, audit=True,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                              mean_interarrival=20.0),
        failures=failures,
        reshard=(ReshardAction(
            time=reshard_at,
            add=tuple(range(base + 1, total + 1))),),
    )


def _reshard_counters(result) -> dict:
    counters = result.registry.snapshot().get("counters", {})
    return {key.split(".", 1)[1]: value
            for key, value in counters.items()
            if key.startswith("reshard.")}


def run(base: int = BASE, spares: int = SPARES, objects: int = OBJECTS,
        degree: int = DEGREE, txns_per_client: int = TXNS_PER_CLIENT,
        duration: float = DURATION, reshard_at: float = RESHARD_AT,
        seed: int = SEED, workers=None) -> dict:
    cells = ("quiet", "partition")
    specs = [cell_spec(cell, base, spares, objects, degree,
                       txns_per_client, duration, reshard_at, seed)
             for cell in cells]
    results = dict(zip(cells, run_many(specs, workers=workers)))
    prediction = movement_prediction(base, spares, objects, degree)

    rows = []
    for cell, r in results.items():
        mig = _reshard_counters(r)
        disturbed = r.metrics.by_reason.get("stale-placement", 0)
        rows.append([
            cell, r.committed, r.aborted,
            f"{mig.get('objects_moved', 0)}/{prediction}",
            mig.get("objects_unchanged", 0), disturbed,
            mig.get("verify_retries", 0),
            r.one_copy_ok, len(r.audit_violations),
        ])
    report(render_table(
        ["cell", "committed", "aborted", "moved/predicted",
         "unchanged", "disturbed", "verify retries", "1SR",
         "audit viol"],
        rows,
        title=f"E19 Online resharding: {base}→{base + spares} nodes, "
              f"{objects} objects on {PLACEMENT} (seed {seed})",
    ))
    emit_metrics("reshard", {
        f"{cell}.{key}": float(value)
        for cell, r in results.items()
        for key, value in {
            "committed": r.committed,
            "moved": _reshard_counters(r).get("objects_moved", 0),
            "disturbed": r.metrics.by_reason.get("stale-placement", 0),
        }.items()
    } | {"prediction": float(prediction)})
    return {"results": results, "prediction": prediction,
            "base": base, "spares": spares, "objects": objects,
            "degree": degree}


def check(outcome: dict) -> None:
    """Deterministic assertions (fixed seed): both cells clean, every
    campaign completes, movement pinned to the policy's prediction."""
    prediction = outcome["prediction"]
    for cell, r in outcome["results"].items():
        assert r.one_copy_ok is True, f"{cell}: not 1SR-clean"
        assert not r.audit_violations, (
            f"{cell}: auditor violations: {r.audit_violations[:3]}")
        mig = _reshard_counters(r)
        assert mig.get("campaigns_completed") == 1, (
            f"{cell}: migration never completed: {mig}")
        moved = mig.get("objects_moved", 0)
        assert moved == prediction, (
            f"{cell}: moved {moved} objects, policy predicted "
            f"{prediction}")

    # the hash ring's reason to exist: an object is disturbed only if
    # one of its k holders changes, so the expected moved fraction is
    # 1-(1-s/(n+s))^k of the objects — never anywhere near all of them
    base, spares = outcome["base"], outcome["spares"]
    objects, degree = outcome["objects"], outcome["degree"]
    fraction = 1.0 - (1.0 - spares / (base + spares)) ** degree
    ceiling = 1.6 * objects * fraction
    assert prediction <= ceiling, (
        f"movement not bounded: {prediction}/{objects} objects for a "
        f"{base}→{base + spares} expansion at degree {degree} "
        f"(ceiling {ceiling:.0f})")
    assert prediction < objects, (
        f"every object moved ({prediction}/{objects}); the policy lost "
        "its bounded-movement property")


def test_benchmark_reshard(benchmark):
    outcome = run_once(benchmark, lambda: run(**SMOKE))
    check(outcome)


if __name__ == "__main__":
    bench_main("bench_reshard", run, check, smoke=SMOKE)
