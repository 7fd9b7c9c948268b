"""E12 (extension) — recovery cost under the durable storage engine.

The §6 log catch-up ships only the write-log entries a stale copy
missed — but an unbounded per-copy log is not free: it is memory that
grows with every write.  The storage engine's checkpoint/compaction
machinery bounds it, at a price: a requester whose copy predates the
retained floor can no longer be served from the log and falls back to
Fig. 9's full-object transfer.

This bench stages the trade directly: a partition, a sustained write
burst on the majority side, and a heal.  With compaction off the
minority catches up from the log (cheap transfer, unbounded retained
log); with compaction on the retained log stays bounded and the
catch-up degrades to a full transfer.  Either way the healed copy is
correct — compaction trades transfer units for memory, never safety.
"""

from __future__ import annotations

import math

from repro.cluster import Cluster
from repro.core.config import CATCHUP_LOG, INIT_PREVIOUS, ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

OBJECT_SIZE = 100
WRITE_BURST = 30
LOG_RETAIN = 4
CHECKPOINT_EVERY = 20


def recovery_cost(burst: int, log_retain, checkpoint_every: int) -> dict:
    """Partition, write ``burst`` times on the majority side, heal.

    Returns transfer/memory/journal counters after the minority has
    provably caught up.
    """
    config = ProtocolConfig(
        delta=1.0, init_strategy=INIT_PREVIOUS, catchup=CATCHUP_LOG,
        log_retain=log_retain, checkpoint_every=checkpoint_every,
    )
    cluster = Cluster(processors=5, seed=13, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0, size=OBJECT_SIZE)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2, 3), (4, 5)), math.inf)])
    cluster.run(until=40.0)
    for index in range(burst):
        cluster.write_once(1, "x", index)
        cluster.run(until=cluster.sim.now + 10.0)
    healed = cluster.sim.now + 1.0
    cluster.injector.at(healed, *heal)
    cluster.run(until=healed + cluster.config.liveness_bound + 15)
    value, _ = cluster.processor(5).store.peek("x")
    assert value == burst - 1, f"p5 not recovered: {value}"
    totals = cluster.metrics
    storage = cluster.registry.sources["storage"]  # all five engines'
    return {
        "transfer_units": totals.transfer_units,
        "catchup_fallbacks": totals.catchup_fallbacks,
        "retained_entries": sum(processor.store.retained_entries()
                                for processor in cluster.processors.values()),
        "wal_appends": storage.wal_appends,
        "forced_syncs": storage.forced_syncs,
        "checkpoints": storage.checkpoints,
        "compacted_entries": storage.compacted_entries,
    }


CONFIGS = [
    ("compaction off (unbounded log)", None, 0),
    (f"compaction on (retain {LOG_RETAIN}, ckpt {CHECKPOINT_EVERY})",
     LOG_RETAIN, CHECKPOINT_EVERY),
]
COLUMNS = ("transfer_units", "catchup_fallbacks", "retained_entries",
           "wal_appends", "checkpoints", "compacted_entries")
SMOKE = {"burst": 6, "configs": CONFIGS}


def run(burst: int = WRITE_BURST, configs=CONFIGS) -> dict:
    # in-process: each policy stages a partition/burst/heal against a
    # live cluster.
    outcomes: dict = {}
    rows = []
    for label, retain, every in configs:
        result = recovery_cost(burst, retain, every)
        outcomes[label] = result
        rows.append([label] + [result[c] for c in COLUMNS])
    report(render_table(
        ["policy", "transfer units", "fallbacks", "retained log",
         "WAL appends", "checkpoints", "compacted"],
        rows,
        title=f"E12 Heal after {burst} writes on a size-{OBJECT_SIZE} "
              "object (5 processors, 3|2 partition, log catch-up)",
    ))
    emit_metrics("recovery_cost", {
        f"{label}.{metric}": outcome[metric]
        for label, outcome in outcomes.items()
        for metric in COLUMNS
    })
    return outcomes


def test_benchmark_recovery_cost(benchmark):
    outcomes = run_once(benchmark, run)
    off = outcomes[CONFIGS[0][0]]
    on = outcomes[CONFIGS[1][0]]
    # Without compaction the retained log grows with the burst and the
    # catch-up is served from it (entries, not whole objects).
    assert off["retained_entries"] >= WRITE_BURST
    assert off["catchup_fallbacks"] == 0
    assert off["transfer_units"] < OBJECT_SIZE
    # With compaction the retained log is bounded and the stale
    # minority fell back to full-object transfers — dearer in units,
    # still correct (the in-bench recovery assert saw the last value).
    assert on["retained_entries"] < off["retained_entries"]
    assert on["compacted_entries"] > 0
    assert on["catchup_fallbacks"] >= 1
    assert on["transfer_units"] >= OBJECT_SIZE


if __name__ == "__main__":
    bench_main("bench_recovery_cost", run, smoke=SMOKE)
