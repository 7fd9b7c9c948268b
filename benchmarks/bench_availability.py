"""E4 — claim C2: availability under partitions, by protocol.

The majority rule makes a logical object accessible exactly where a
weighted majority of its copies is in view.  This bench partitions a
5-processor, fully replicated cluster into every k | (5-k) split and
reports, per protocol, the fraction of processors that can read and
write after the views stabilize.

Expected shape: virtual partitions and the voting protocols keep the
majority side fully available for both reads and writes; ROWA can read
everywhere but write nowhere; weighted placement shifts the accessible
side to wherever the weight is.
"""

from __future__ import annotations

import math

from repro.cluster import Cluster
from repro.net import FaultAction, apply_schedule
from repro.protocols import protocol_factory
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

PROTOCOLS = ["virtual-partitions", "rowa", "quorum", "majority",
             "missing-writes"]
N = 5
SMOKE = {"splits": (2,), "protocols": ["virtual-partitions", "rowa"],
         "weighted": False}


def availability(protocol_name: str, k: int) -> dict:
    cluster = Cluster(processors=N, seed=5,
                      protocol=protocol_factory(protocol_name))
    cluster.place("x", holders=list(range(1, N + 1)), initial=0)
    cluster.start()
    sides = (tuple(range(1, k + 1)), tuple(range(k + 1, N + 1)))
    apply_schedule(cluster.injector,
                   [FaultAction(5.0, "partition", sides, math.inf)])
    cluster.run(until=5.0 + cluster.config.liveness_bound + 5)
    reads = sum(cluster.protocol(p).available("x", write=False)
                for p in cluster.pids)
    writes = sum(cluster.protocol(p).available("x", write=True)
                 for p in cluster.pids)
    return {"read": reads / N, "write": writes / N}


def weighted_availability(protocol_name: str) -> dict:
    """A weight-2 copy lets a 2-processor side hold the majority."""
    cluster = Cluster(processors=N, seed=5,
                      protocol=protocol_factory(protocol_name))
    cluster.place("x", holders={1: 2, 2: 1, 3: 1, 4: 1, 5: 1}, initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [  # weight 3 of 6... not maj
        FaultAction(5.0, "partition", ((1, 2), (3, 4, 5)), math.inf)])
    cluster.run(until=5.0 + cluster.config.liveness_bound + 5)
    return {
        "side12_write": cluster.protocol(1).available("x", write=True),
        "side345_write": cluster.protocol(3).available("x", write=True),
    }


def run(splits=(1, 2, 3, 4), protocols=PROTOCOLS,
        weighted: bool = True) -> dict:
    # in-process: each point probes availability on a live partitioned
    # cluster.
    rows = []
    outcomes: dict = {}
    for k in splits:
        for name in protocols:
            result = availability(name, k)
            outcomes[(k, name)] = result
            rows.append([f"{k}|{N - k}", name, result["read"],
                         result["write"]])
    report(render_table(
        ["split", "protocol", "read avail", "write avail"],
        rows,
        title=f"E4  Fraction of processors able to access x after a "
              f"partition (n={N}, full replication)",
    ))
    if weighted:
        weighted_results = {name: weighted_availability(name)
                            for name in ("virtual-partitions", "quorum")}
        wrows = [[name, w["side12_write"], w["side345_write"]]
                 for name, w in weighted_results.items()]
        report(render_table(
            ["protocol", "{1,2} can write", "{3,4,5} can write"],
            wrows,
            title="E4b Weighted copies (p1 holds weight 2 of 6): an even "
                  "3|3 weight split makes x unwritable everywhere",
        ))
        outcomes["weighted"] = weighted_results
    emit_metrics("availability", {
        f"split{k}.{name}.{mode}": outcomes[(k, name)][mode]
        for k in splits for name in protocols
        for mode in ("read", "write")
    })
    return outcomes


def test_benchmark_availability(benchmark):
    outcomes = run_once(benchmark, run)
    for k in (1, 2, 3, 4):
        majority_side = max(k, N - k) / N
        vp = outcomes[(k, "virtual-partitions")]
        # Exactly the majority side stays read- AND write-available:
        assert vp["read"] == majority_side
        assert vp["write"] == majority_side
        rowa = outcomes[(k, "rowa")]
        assert rowa["write"] == 0.0  # one unreachable copy kills writes
        assert rowa["read"] == 1.0   # any copy serves reads
        quorum = outcomes[(k, "quorum")]
        assert quorum["write"] == majority_side
    weighted = outcomes["weighted"]
    for name, w in weighted.items():
        assert not w["side12_write"] and not w["side345_write"], (
            f"{name}: a 3-of-6 weight split must block writes everywhere"
        )


if __name__ == "__main__":
    bench_main("bench_availability", run, smoke=SMOKE)
