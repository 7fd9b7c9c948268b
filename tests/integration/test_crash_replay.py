"""Integration: crash recovery by checkpoint + WAL replay.

The storage engine's contract is that recovery is *replay*: a fresh
engine rebuilt from the last checkpoint plus the journal tail holds
exactly the durable state the live engine holds.  These tests drive a
full failure-laden protocol workload (so the journal carries every
record kind: placements, transaction writes, recovery installs,
catch-up applies, max-id bumps, prepare records, decision-log entries)
and then rebuild every processor's engine mid-flight.

The second half pins the §6/compaction interaction end to end: when a
copy's write log is compacted past a stale peer's date, catch-up falls
back to a full-object transfer and the system still converges to a
correct, one-copy-serializable state.
"""

from dataclasses import replace
from math import inf

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule
from repro.core.config import CATCHUP_LOG, INIT_PREVIOUS
from repro.node.storage import StorageEngine
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import PrivateObjects, WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment


PROCESSORS = 5
CLIENTS = 2


def _failure_spec(checkpoint_every=0, log_retain=None):
    schedule = ScheduledNemesis((
        FaultAction(30.0, "partition", ((1, 2, 3, 4), (5,)), 30.0),
        FaultAction(45.0, "crash", (2,), 25.0)))

    return ExperimentSpec(
        protocol="virtual-partitions", processors=PROCESSORS,
        objects=PROCESSORS * CLIENTS * 2, seed=7,
        duration=200.0, grace=60.0,
        workload=WorkloadSpec(read_fraction=0.3, ops_per_txn=2,
                              mean_interarrival=6.0),
        config=ProtocolConfig(delta=1.0, init_strategy=INIT_PREVIOUS,
                              catchup=CATCHUP_LOG, split_off_fastpath=True,
                              weakened_r4=True,
                              checkpoint_every=checkpoint_every,
                              log_retain=log_retain),
        clients=CLIENTS, txns_per_client=4,
        objects_for=PrivateObjects(CLIENTS),
        failures=schedule, retries=25, check=True,
    )


def _assert_rebuilds_cleanly(cluster):
    replayed = 0
    for pid in cluster.pids:
        engine = cluster.processors[pid].store
        rebuilt = engine.rebuilt()
        assert rebuilt.snapshot() == engine.snapshot(), \
            f"replay diverged on p{pid}"
        # the durable max-id cell individually, since everything hangs
        # off identifiers staying monotone across crashes
        assert rebuilt.cell("max-id") == engine.cell("max-id")
        assert rebuilt.snapshot().decisions == engine.snapshot().decisions
        replayed += rebuilt.stats.replayed_records
    return replayed


def test_rebuilt_engines_equal_precrash_durable_state():
    """No checkpoints: recovery replays the whole journal."""
    result = run_experiment(_failure_spec())
    assert result.committed > 0
    assert result.one_copy_ok is True
    replayed = _assert_rebuilds_cleanly(result.cluster)
    assert replayed > 0  # the replay path actually ran


def test_rebuilt_engines_equal_with_checkpoints_and_compaction():
    """Checkpoints + compaction: replay covers only the journal tail,
    and compaction floors survive the rebuild."""
    result = run_experiment(_failure_spec(checkpoint_every=40, log_retain=3))
    assert result.committed > 0
    assert result.one_copy_ok is True
    cluster = result.cluster
    assert cluster.registry.sources["storage"].checkpoints > 0
    _assert_rebuilds_cleanly(cluster)


def test_a_cell_created_and_never_written_journals_nothing():
    """A durable cell read but never written (a Paxos acceptor cell a
    preempted promise never wrote) appends no WAL record, is in no
    snapshot, and comes back from replay as None; its first write is
    journalled and replayed like any other."""
    engine = StorageEngine(1)
    engine.place("x", initial=0)
    assert engine.cell("px:t1:2") is None
    assert [r.kind for r in engine.wal] == ["place"]
    assert engine.stats.wal_appends == 1
    assert "px:t1:2" not in engine.snapshot().cells
    rebuilt = engine.rebuilt()
    assert rebuilt.snapshot() == engine.snapshot()
    assert rebuilt.cell("px:t1:2") is None
    engine.write_cell("px:t1:2", (0, 0, "prepared"), forced=False)
    assert engine.stats.forced_syncs == 0 and engine.stats.wal_appends == 2
    assert engine.rebuilt().cell("px:t1:2") == (0, 0, "prepared")


def test_rebuilt_engines_equal_under_paxos_commit():
    """Paxos Commit's acceptor cells, written forced or riding another
    record's force, replay like every other record."""
    result = run_experiment(replace(_failure_spec(), commit_backend="paxos"))
    assert result.committed > 0
    assert result.one_copy_ok is True
    assert _assert_rebuilds_cleanly(result.cluster) > 0


def test_compacted_catchup_falls_back_to_full_transfer_and_converges():
    """A partitioned-away copy whose peers compacted past its date is
    caught up by full-object transfer (§6 degraded gracefully), ends
    holding the latest value, and the history stays 1SR."""
    config = ProtocolConfig(delta=1.0, init_strategy=INIT_PREVIOUS,
                            catchup=CATCHUP_LOG,
                            checkpoint_every=10, log_retain=2)
    cluster = Cluster(processors=5, seed=13, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0, size=50)
    cluster.start()
    (heal,) = apply_schedule(cluster.injector, [
        FaultAction(5.0, "partition", ((1, 2, 3), (4, 5)), inf)])
    cluster.run(until=30.0)
    burst = 8
    for index in range(burst):
        cluster.write_once(1, "x", index)
        cluster.run(until=cluster.sim.now + 10.0)
    healed = cluster.sim.now + 1.0
    cluster.injector.at(healed, *heal)
    cluster.run(until=healed + cluster.config.liveness_bound + 15)
    totals = cluster.metrics
    assert totals.catchup_fallbacks >= 1
    # fallbacks ship whole objects: the transfer bill shows it
    assert totals.transfer_units >= 50
    for pid in cluster.pids:
        value, _ = cluster.processors[pid].store.peek("x")
        assert value == burst - 1, f"p{pid} stale after heal: {value}"
    assert cluster.check_one_copy_serializable() is True
