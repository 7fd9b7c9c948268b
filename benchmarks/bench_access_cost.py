"""E3 — claim C1: physical accesses per logical operation, by protocol.

The paper's efficiency claim (§1, §7): logical reads cost ONE physical
access under virtual partitions, versus a quorum/majority of accesses
under voting protocols [T, G]; when reads outnumber writes, the total
access cost is lower.  This bench sweeps the read fraction under a
failure-free workload, paired across protocols, and reports:

* physical accesses per logical read (1.0 for read-one protocols),
* physical accesses per logical operation (the weighted mix),
* messages per committed transaction three ways: data messages (no
  probe or view-change traffic), all messages, and the Fig. 7 probe
  background (``probe`` + ``probe-ack``) alone — read-one's data-message
  advantage is paid back in probes, so C1 holds on data messages, not
  on the total.

Expected shape: virtual-partitions matches ROWA, beats quorum/majority
everywhere on reads, and beats them on the mix once the read fraction
is high; the voting protocols' cheaper writes (majority vs write-all)
win only at write-heavy mixes — the crossover the table exposes.
"""

from __future__ import annotations

from repro.workload import ExperimentSpec, WorkloadSpec, sweep_protocols
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

PROTOCOLS = ["virtual-partitions", "rowa", "quorum", "majority",
             "missing-writes"]
READ_FRACTIONS = [0.5, 0.7, 0.9, 0.99]
SMOKE = {"read_fractions": [0.9], "duration": 60.0,
         "protocols": ["virtual-partitions", "rowa"]}
PROBES = {"probe", "probe-ack"}
BACKGROUND = PROBES | {"newvp", "vp-accept", "commit", "vpread", "mw-note"}


def messages(result, kinds) -> int:
    """Messages sent whose kind is in ``kinds``."""
    return sum(count for kind, count in result.network["by_kind"].items()
               if kind in kinds)


def run(read_fractions=READ_FRACTIONS, duration=300.0,
        protocols=PROTOCOLS, workers=None) -> dict:
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
            sent, committed = r.network["sent"], max(r.committed, 1)
            rows.append([
                f"{fraction:.2f}", name, r.committed,
                r.reads_per_logical_read, r.writes_per_logical_write,
                r.accesses_per_operation,
                (sent - messages(r, BACKGROUND)) / committed,
                sent / committed, messages(r, PROBES) / committed,
            ])
    report(render_table(
        ["read frac", "protocol", "committed", "phys/logical read",
         "phys/logical write", "phys/op (mix)", "data msgs/txn",
         "total msgs/txn", "probe msgs/txn"],
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
        )
    })
    return outcomes


def test_benchmark_access_cost(benchmark):
    outcomes = run_once(benchmark, run)
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
