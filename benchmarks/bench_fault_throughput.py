"""E9 — §1/§7's overall claim: cost and availability with rare failures.

"It tolerates the same fault classes as majority voting [T] and quorum
consensus [G], and does so with fewer accesses to copies, assuming that
read requests outnumber write requests and that fault occurrences are
rare events."

The bench runs a read-heavy closed-loop workload under a random
crash/repair process (failures rare relative to transaction latency)
and compares committed work, abort rate, and access cost per protocol.

Expected shape: virtual partitions and the voting protocols keep
committing through failures (similar commit counts); virtual partitions
does it with ~1 physical access per read where the voting protocols pay
a majority; ROWA's writes collapse whenever any copy is down.
"""

from __future__ import annotations

from repro.net.nemesis import plan_crash_repair
from repro.sim.rng import RandomStreams
from repro.workload import (
    ExperimentSpec,
    ScheduledNemesis,
    WorkloadSpec,
    sweep_protocols,
)
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

PROTOCOLS = ["virtual-partitions", "rowa", "quorum", "majority",
             "missing-writes"]
DURATION = 800.0
SMOKE = {"duration": 100.0, "protocols": ["virtual-partitions", "rowa"]}


def e9_spec(duration: float = DURATION) -> ExperimentSpec:
    """E9's experiment.  The failure script is a plan drawn here, from
    the stream a seed-33 cluster would hand out: plain data, so the
    run is replayable from the spec and its action list alone."""
    return ExperimentSpec(
        processors=5, objects=10, seed=33, duration=duration,
        workload=WorkloadSpec(read_fraction=0.9, ops_per_txn=2,
                              mean_interarrival=10.0),
        failures=ScheduledNemesis(tuple(plan_crash_repair(
            RandomStreams(33).stream("random-failures"), range(1, 6),
            node_mttf=300.0, node_mttr=40.0, horizon=duration,
        ))),
        retries=1,
    )


def run(duration: float = DURATION, protocols=PROTOCOLS,
        workers=None) -> dict:
    spec = e9_spec(duration)
    results = sweep_protocols(spec, protocols, workers=workers)
    rows = []
    for name, r in results.items():
        rows.append([
            name, r.committed, r.aborted, f"{r.commit_rate:.2f}",
            r.reads_per_logical_read, r.accesses_per_operation,
            f"{r.messages_per_committed_txn:.1f}",
        ])
    report(render_table(
        ["protocol", "committed", "aborted", "commit rate",
         "phys/logical read", "phys/op (mix)", "msgs/txn"],
        rows,
        title=f"E9  Read-heavy (90%) workload with rare crash/repair "
              f"(node MTTF 300, MTTR 40, duration {duration})",
    ))
    emit_metrics("fault_throughput", {
        f"{name}.{metric}": value
        for name, r in results.items()
        for metric, value in {
            "committed": r.committed,
            "aborted": r.aborted,
            "phys_per_read": r.reads_per_logical_read,
            "phys_per_op": r.accesses_per_operation,
            "msgs_per_txn": r.messages_per_committed_txn,
        }.items()
    })
    return results


def test_benchmark_fault_throughput(benchmark):
    results = run_once(benchmark, run)
    vp = results["virtual-partitions"]
    quorum = results["quorum"]
    majority = results["majority"]
    rowa = results["rowa"]
    # Fault tolerance: the adaptive protocol keeps committing.
    assert vp.committed > 0.8 * quorum.committed
    # Efficiency: read-one vs read-majority under the same faults.
    assert vp.reads_per_logical_read < 1.5
    assert quorum.reads_per_logical_read > 2.5
    assert vp.accesses_per_operation < quorum.accesses_per_operation
    assert vp.accesses_per_operation < majority.accesses_per_operation
    # ROWA cannot write while any copy holder is down: it stalls on
    # unreachable copies (access timeouts) and aborts the writes, so it
    # commits visibly less than the adaptive protocol under the same
    # failure schedule.
    assert rowa.committed < 0.85 * vp.committed


if __name__ == "__main__":
    bench_main("bench_fault_throughput", run, smoke=SMOKE)
