"""E6 — claim C4: partition-initialization cost, by §6 optimization.

After a merge, rule R5 requires each newly accessible copy to be
brought up to date.  The paper's §6 proposes three refinements over the
Fig. 9 baseline (read every copy, ship whole values):

1. ``previous``: use the previous-partition info piggybacked on the
   creation protocol to read exactly one known-fresh copy;
2. split-off fast path: a partition whose members all come from one
   common previous partition needs *no* initialization at all;
3. ``log`` catch-up: ship only the write-log entries a copy missed
   instead of the whole (large) object.

The bench stages a partition, a burst of writes on the majority side,
and a heal; it reports recovery reads and transfer units per strategy,
plus the split-off case (crash + rejoin of a minority that saw no
writes).
"""

from __future__ import annotations

import math

from repro.cluster import Cluster
from repro.core.config import (
    CATCHUP_FULL,
    CATCHUP_LOG,
    INIT_PREVIOUS,
    INIT_READ_ALL,
    ProtocolConfig,
)
from repro.net import FaultAction, apply_schedule
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

OBJECT_SIZE = 100
WRITE_BURST = 5


def merge_cost(init_strategy: str, catchup: str,
               fastpath: bool) -> dict:
    config = ProtocolConfig(delta=1.0, init_strategy=init_strategy,
                            catchup=catchup, split_off_fastpath=fastpath)
    cluster = Cluster(processors=5, seed=13, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0, size=OBJECT_SIZE)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2, 3), (4, 5)), math.inf)])
    cluster.run(until=40.0)
    for index in range(WRITE_BURST):
        cluster.write_once(1, "x", index)
        cluster.run(until=cluster.sim.now + 15.0)
    vpreads = {"n": 0}
    cluster.network.tap = lambda m: vpreads.__setitem__(
        "n", vpreads["n"] + (m.kind == "vpread"))
    healed = cluster.sim.now + 1.0
    cluster.injector.at(healed, *heal)
    cluster.run(until=healed + cluster.config.liveness_bound + 15)
    value, _ = cluster.processor(5).store.peek("x")
    assert value == WRITE_BURST - 1, f"p5 not recovered: {value}"
    return {
        "vpreads": vpreads["n"],
        "transfer_units": cluster.metrics.transfer_units,
    }


def split_off_cost(fastpath: bool) -> dict:
    """p5 crashes; {1..4} split off from the full partition.  All
    survivors hold fresh copies, so the fast path skips recovery reads
    entirely."""
    config = ProtocolConfig(delta=1.0, init_strategy=INIT_PREVIOUS,
                            split_off_fastpath=fastpath)
    cluster = Cluster(processors=5, seed=13, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0, size=OBJECT_SIZE)
    cluster.start()
    vpreads = {"n": 0}
    cluster.network.tap = lambda m: vpreads.__setitem__(
        "n", vpreads["n"] + (m.kind == "vpread"))
    apply_schedule(cluster.injector,
                   [FaultAction(5.0, "crash", (5,), math.inf)])
    cluster.run(until=5.0 + cluster.config.liveness_bound + 10)
    read = cluster.read_once(1, "x")
    cluster.run(until=cluster.sim.now + 10)
    assert read.value == (True, 0)
    return {
        "vpreads": vpreads["n"],
        "transfer_units": cluster.metrics.transfer_units,
    }


CONFIGS = [
    ("Fig.9 read-all + full copy", INIT_READ_ALL, CATCHUP_FULL, False),
    ("previous + full copy", INIT_PREVIOUS, CATCHUP_FULL, False),
    ("previous + log catch-up", INIT_PREVIOUS, CATCHUP_LOG, False),
    ("previous + log + split-off", INIT_PREVIOUS, CATCHUP_LOG, True),
]
SMOKE = {"configs": CONFIGS[:1], "split_off": False}


def run(configs=CONFIGS, split_off: bool = True) -> dict:
    # in-process: each scenario stages failures against a live cluster
    # mid-run.
    outcomes: dict = {}
    rows = []
    for label, strategy, catchup, fastpath in configs:
        result = merge_cost(strategy, catchup, fastpath)
        outcomes[label] = result
        rows.append([label, result["vpreads"], result["transfer_units"]])
    report(render_table(
        ["strategy", "recovery reads", "transfer units"],
        rows,
        title=f"E6  Merge after {WRITE_BURST} writes on a size-"
              f"{OBJECT_SIZE} object (5 processors, 3|2 partition healed)",
    ))
    if split_off:
        split = {
            "split-off fast path OFF": split_off_cost(False),
            "split-off fast path ON": split_off_cost(True),
        }
        outcomes.update(split)
        rows = [[label, r["vpreads"], r["transfer_units"]]
                for label, r in split.items()]
        report(render_table(
            ["case", "recovery reads", "transfer units"],
            rows,
            title="E6b Split-off (p5 crashes; {1..4} re-forms with all "
                  "copies fresh)",
        ))
    emit_metrics("init_cost", {
        f"{label}.{metric}": outcome[metric]
        for label, outcome in outcomes.items()
        for metric in ("vpreads", "transfer_units")
    })
    return outcomes


def test_benchmark_init_cost(benchmark):
    outcomes = run_once(benchmark, run)
    baseline = outcomes["Fig.9 read-all + full copy"]
    previous = outcomes["previous + full copy"]
    logged = outcomes["previous + log catch-up"]
    # §6 claim 1: previous_v ordering cuts the number of recovery reads.
    assert previous["vpreads"] < baseline["vpreads"]
    # §6 claim 3: log catch-up ships entries, not whole large objects.
    assert logged["transfer_units"] < previous["transfer_units"] / 4
    # §6 claim 2: the split-off fast path removes recovery reads.
    assert (outcomes["split-off fast path ON"]["vpreads"]
            < outcomes["split-off fast path OFF"]["vpreads"])


if __name__ == "__main__":
    bench_main("bench_init_cost", run, smoke=SMOKE)
