"""E3 — claim C1: physical accesses per logical operation, by protocol.

The paper's efficiency claim (§1, §7): logical reads cost ONE physical
access under virtual partitions, versus a quorum/majority of accesses
under voting protocols [T, G]; when reads outnumber writes, the total
access cost is lower.  This bench sweeps the read fraction under a
failure-free workload, paired across protocols, and reports:

* physical accesses per logical read (1.0 for read-one protocols),
* physical accesses per logical operation (the weighted mix),
* data messages per committed transaction (excluding the probe
  background, reported separately).

Expected shape: virtual-partitions matches ROWA, beats quorum/majority
everywhere on reads, and beats them on the mix once the read fraction
is high; the voting protocols' cheaper writes (majority vs write-all)
win only at write-heavy mixes — the crossover the table exposes.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.workload import (
    ExperimentSpec,
    PrivateObjects,
    WorkloadSpec,
    run_many,
    sweep_protocols,
)
from repro.workload.tables import render_table

from _shared import bench_main, cost_metrics, emit_metrics, report, run_once

PROTOCOLS = ["virtual-partitions", "rowa", "quorum", "majority",
             "missing-writes"]
READ_FRACTIONS = [0.5, 0.7, 0.9, 0.99]
SMOKE = {"read_fractions": [0.9], "duration": 60.0,
         "protocols": ["virtual-partitions", "rowa"],
         "batching_txns": 3}
BACKGROUND = {"probe", "probe-ack", "newvp", "vp-accept", "commit",
              "vpread", "mw-note"}

#: transport batching window of the paired comparison (≤ δ = 1.0)
BATCH_WINDOW = 0.5
#: concurrent clients per processor in the batching comparison — the
#: same-coordinator overlap is what per-destination batching coalesces
BATCH_CLIENTS = 3


def data_messages(result) -> int:
    return sum(count for kind, count in result.network["by_kind"].items()
               if kind not in BACKGROUND)


def batching_spec(window: float, txns_per_client: int,
                  clients: int = BATCH_CLIENTS) -> ExperimentSpec:
    """The paired-comparison spec: identical in everything but the window.

    Each client owns two private, fully replicated objects, so there are
    no lock conflicts and every attempted transaction commits in both
    runs; a fixed per-client transaction count makes the attempted work
    identical regardless of completion-time drift.  The only degree of
    freedom left is the transport — exactly what the pair measures.
    """
    return ExperimentSpec(
        processors=5, objects=5 * clients * 2, seed=11,
        duration=600.0, grace=120.0,
        workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=2,
                              mean_interarrival=4.0),
        config=ProtocolConfig(delta=1.0, batch_window=window),
        clients=clients, txns_per_client=txns_per_client,
        objects_for=PrivateObjects(clients),
        check=True,
    )


def run_batching(txns_per_client: int = 8, workers=None) -> dict:
    """Batched vs unbatched paired runs of the VP protocol."""
    windows = (0.0, BATCH_WINDOW)
    results = dict(zip(windows, run_many(
        [batching_spec(window, txns_per_client) for window in windows],
        workers=workers,
    )))
    rows = []
    for window, r in sorted(results.items()):
        rows.append([
            f"{window:.2f}", r.committed, str(r.one_copy_ok),
            r.network["sent"], r.network["envelopes"],
            f"{r.envelopes_per_committed_txn:.2f}",
            f"{r.batch_occupancy:.2f}",
        ])
    report(render_table(
        ["batch window", "committed", "1SR", "logical msgs", "envelopes",
         "envelopes/txn", "occupancy"],
        rows,
        title=f"E3b  Transport batching, paired runs (virtual partitions, "
              f"{BATCH_CLIENTS} clients/processor, private objects)",
    ))
    emit_metrics("access_cost_batching", {
        f"w{window:.2f}.{metric}": value
        for window, r in sorted(results.items())
        for metric, value in {
            "committed": r.committed, **cost_metrics(r),
        }.items()
    })
    return results


def run(read_fractions=READ_FRACTIONS, duration=300.0,
        protocols=PROTOCOLS, batching_txns=8, workers=None) -> dict:
    outcomes: dict = {}
    rows = []
    for fraction in read_fractions:
        spec = ExperimentSpec(
            processors=5, objects=10, seed=21, duration=duration,
            workload=WorkloadSpec(read_fraction=fraction, ops_per_txn=2,
                                  mean_interarrival=10.0),
        )
        results = sweep_protocols(spec, protocols, workers=workers)
        outcomes[fraction] = results
        for name in protocols:
            r = results[name]
            rows.append([
                f"{fraction:.2f}", name, r.committed,
                r.reads_per_logical_read, r.writes_per_logical_write,
                r.accesses_per_operation,
                data_messages(r) / max(r.committed, 1),
            ])
    report(render_table(
        ["read frac", "protocol", "committed", "phys/logical read",
         "phys/logical write", "phys/op (mix)", "data msgs/txn"],
        rows,
        title="E3  Access cost by read fraction (5 processors, full "
              "replication, no failures)",
    ))
    emit_metrics("access_cost", {
        f"rf{fraction:.2f}.{name}.{metric}": value
        for fraction, results in outcomes.items()
        for name in protocols
        for metric, value in (
            ("committed", results[name].committed),
            ("phys_per_read", results[name].reads_per_logical_read),
            ("phys_per_op", results[name].accesses_per_operation),
            ("msgs_per_txn", results[name].messages_per_committed_txn),
            ("envelopes_per_txn",
             results[name].envelopes_per_committed_txn),
        )
    })
    outcomes["batching"] = run_batching(txns_per_client=batching_txns,
                                        workers=workers)
    return outcomes


def test_benchmark_access_cost(benchmark):
    outcomes = run_once(benchmark, run)
    paired = outcomes.pop("batching")
    plain, batched = paired[0.0], paired[BATCH_WINDOW]
    # Batching is cost-transparent: same committed work, same 1SR
    # verdict, strictly fewer envelopes for the same logical traffic.
    assert batched.committed == plain.committed > 0
    assert batched.one_copy_ok and plain.one_copy_ok
    assert plain.network["envelopes"] == plain.network["sent"]
    assert (batched.envelopes_per_committed_txn
            < plain.envelopes_per_committed_txn)
    assert batched.batch_occupancy > 1.0
    for fraction, results in outcomes.items():
        vp = results["virtual-partitions"]
        quorum = results["quorum"]
        majority = results["majority"]
        # Read-one holds exactly, regardless of mix:
        assert vp.reads_per_logical_read == 1.0
        # Voting protocols pay a quorum per read (3 of 5 here):
        assert quorum.reads_per_logical_read >= 3.0
        assert majority.reads_per_logical_read >= 3.0
    # The paper's headline: with reads outnumbering writes, the overall
    # access cost beats the voting protocols...
    high = outcomes[0.99]
    assert (high["virtual-partitions"].accesses_per_operation
            < high["quorum"].accesses_per_operation)
    # ...and the crossover exists: at a write-heavy mix the voting
    # protocols' majority writes undercut write-all.
    low = outcomes[0.5]
    assert (low["quorum"].writes_per_logical_write
            < low["virtual-partitions"].writes_per_logical_write)


if __name__ == "__main__":
    bench_main("bench_access_cost", run, smoke=SMOKE)
