"""Integration: a run's storage holds its live state, not its history.

Every engine checkpoints itself (``ProtocolConfig.checkpoint_every``,
500 appends by default), which truncates its journal, and a copy keeps
a §6 write log only under ``catchup="log"`` — the one reader of those
logs.  Neither costs model time:

* a partition, a crash and a recovery run the same with and without
  the default checkpoints — fingerprints equal but for the
  ``storage.checkpoints`` counter, under both catch-up modes — and
  every engine still rebuilds to its live durable state (the
  from-scratch walk of ``tests/node/reference_snapshot.py``);
* a ``steady-rw``-shaped run four times as long ends with every journal
  still under one checkpoint interval, and under full-copy catch-up no
  copy or checkpoint holds a log entry.
"""

from copy import deepcopy

import pytest

from ledger import workloads
from repro import FaultAction, ProtocolConfig
from repro.core.config import CATCHUP_FULL, CATCHUP_LOG
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

from tests.node.reference_snapshot import reference_snapshot

#: the one registry key a checkpoint moves
CHECKPOINT_KEY = "storage.checkpoints"
#: ``steady-rw`` at a fifth of its ledger length (300 ticks), long
#: enough that every engine checkpoints
BASE_SCALE = 0.2


def _faulted_spec(catchup: str, checkpoint_every: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="virtual-partitions", processors=5, objects=40, seed=11,
        duration=300.0, grace=60.0, clients=2,
        workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=2,
                              mean_interarrival=3.0),
        config=ProtocolConfig(catchup=catchup, checkpoint_every=checkpoint_every),
        failures=ScheduledNemesis((
            FaultAction(40.0, "partition", ((1, 2, 3), (4, 5)), 40.0),
            FaultAction(120.0, "crash", (2,), 25.0))),
    )


def _without_checkpoints(result) -> dict:
    fingerprint = deepcopy(result.fingerprint())  # the registry is the result's own
    fingerprint["registry"]["counters"].pop(CHECKPOINT_KEY, None)
    return fingerprint


@pytest.mark.parametrize("catchup", [CATCHUP_FULL, CATCHUP_LOG])
def test_default_checkpoints_leave_a_faulted_run_unchanged(catchup):
    never, default = (run_experiment(_faulted_spec(catchup, every))
                      for every in (0, ProtocolConfig().checkpoint_every))
    assert never.committed > 0 and never.metrics.recoveries > 0
    assert never.registry.snapshot()["counters"].get(CHECKPOINT_KEY, 0) == 0
    assert default.registry.snapshot()["counters"][CHECKPOINT_KEY] >= 5
    assert _without_checkpoints(default) == _without_checkpoints(never)
    for result in (never, default):
        for processor in result.cluster.processors.values():
            engine = processor.store
            assert engine.rebuilt().snapshot() == reference_snapshot(engine)
            assert (engine.retained_entries() > 0) == (catchup == CATCHUP_LOG)


@pytest.mark.parametrize("length", [1, 4])
def test_a_longer_run_holds_one_checkpoint_interval_and_no_write_log(length):
    result = run_experiment(workloads.build("steady-rw", seed=1,
                                            scale=BASE_SCALE * length))
    config = result.cluster.config
    assert config.catchup == CATCHUP_FULL
    checkpoints = result.registry.snapshot()["counters"][CHECKPOINT_KEY]
    assert checkpoints >= length * len(result.cluster.pids)
    for processor in result.cluster.processors.values():
        engine = processor.store
        assert len(engine.wal) < config.checkpoint_every
        assert engine.retained_entries() == 0
        assert all(copy.log is None
                   for copy in engine.last_checkpoint.state.copies.values())
