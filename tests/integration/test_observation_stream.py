"""One observation stream: every fact reaches each History reader once.

Protocol code reports each fact to ``History.record`` and nowhere else;
``History`` hands the record to the auditor, then to the tracer.  One
traced, audited run with a partition, a crash and recovery, a reshard
and lease-served reads produces every record type, and a counting
reader wrapped around each of the two (plus a third of its own) checks
that each record is read exactly once per occurrence.
"""

from collections import Counter

from repro.analysis.serialization import CopyOrder
from repro.client.session import SessionSpec
from repro.net import FaultAction
from repro.shard import ReshardAction
from repro.workload import ExperimentSpec, ScheduledNemesis, WorkloadSpec
from repro.workload import runner

RECORD_TYPES = {
    "Join", "Depart", "CrashDepart", "LogicalAccess", "PhysicalOp",
    "Decision", "DecisionApplied", "CommittedWrite", "LeaseGrant",
    "LeaseRead", "CopyInstall", "CopyRetire", "ReshardFlip",
}


class Counting:
    """A History reader counting each record type before passing it on."""

    def __init__(self, reader=None):
        self.reader = reader
        self.counts = Counter()

    def read(self, fact):
        self.counts[type(fact).__name__] += 1
        if self.reader is not None:
            self.reader.read(fact)


faults = ScheduledNemesis((
    FaultAction(60.0, "partition", ((1, 2, 3, 4), (5, 6)), 30.0),
    FaultAction(110.0, "crash", (3,), 20.0)))


def test_every_fact_reaches_each_reader_once(monkeypatch):
    spec = ExperimentSpec(
        protocol="virtual-partitions", processors=6, objects=12,
        copies_per_object=3, placement="hash-ring", seed=5,
        duration=180.0, audit=True, trace=True, failures=faults,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                              zipf_s=1.2),
        session=SessionSpec(cache_capacity=4, lease_duration=10.0),
        reshard=(ReshardAction(time=20.0, add=(6,)),),
    )
    readers = {}
    build = runner.build_cluster

    def counted(spec):
        cluster = build(spec)
        auditor, tracer = cluster.history.readers  # judged, then shown
        assert (auditor, tracer) == (cluster.auditor, cluster.tracer)
        readers["auditor"] = Counting(auditor)
        readers["tracer"] = Counting(tracer)
        readers["own"] = Counting()
        readers["copies"] = CopyOrder(cluster.history)
        cluster.history.readers = tuple(readers.values())
        return cluster

    monkeypatch.setattr(runner, "build_cluster", counted)
    result = runner.run_experiment(spec)
    cluster = result.cluster
    counts = readers["own"].counts
    assert set(counts) == RECORD_TYPES
    assert readers["auditor"].counts == counts
    assert readers["tracer"].counts == counts
    # History keeps joins, departs, the first install of each written
    # version and the logical ops of each transaction that did not
    # abort; the boot joins came before any reader
    history = cluster.history
    ops = readers["copies"].ops
    assert counts["PhysicalOp"] == len(ops)
    assert set(history.installed) == {
        (op.obj, op.version) for op in ops if op.kind == "w"}
    assert history.aborted() and not any(
        record.logical_ops for record in history.aborted())
    kept = sum(len(record.logical_ops) for record in history.txns.values())
    assert 0 < kept < counts["LogicalAccess"]
    assert counts["Join"] == len(history.joins) - len(cluster.pids)
    assert counts["Depart"] + counts["CrashDepart"] == len(history.departs)
    snapshot = result.registry.snapshot()["counters"]
    assert counts["CopyInstall"] == cluster.metrics.reshard_installs
    assert counts["CopyRetire"] == cluster.metrics.reshard_retires
    assert counts["ReshardFlip"] == snapshot["reshard.flips"]
    assert counts["LeaseRead"] == snapshot["client.lease_reads"]
    # the trace shows every join, depart and reshard step but a crash's
    # depart; the auditor read that one too (counted above)
    trace = cluster.tracer.counts()
    assert trace["vp.join"] == counts["Join"]
    assert trace["vp.depart"] == counts["Depart"]
    assert counts["CrashDepart"] >= 1
    assert trace["reshard.install"] == counts["CopyInstall"]
    assert trace["reshard.retire"] == counts["CopyRetire"]
    assert trace["reshard.flip"] == counts["ReshardFlip"]
    assert result.audit_violations == ()
