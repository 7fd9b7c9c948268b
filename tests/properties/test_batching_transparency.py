"""Property: transport batching is cost-transparent, never
semantics-changing.

A run with ``batch_window > 0`` must commit the same transaction set
and pass the one-copy-serializability check identically to the same
run with ``batch_window = 0`` — batching may only change *when*
messages travel (never later than alone) and *how many envelopes*
carry them.

The paired specs use fixed per-client transaction counts and private,
fully replicated objects per client, so both runs attempt identical,
conflict-free work: any divergence in what commits would be the
transport's fault, which is exactly the property under test.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.workload.generator import PrivateObjects, WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

PROCESSORS = 5
CLIENTS = 2
TXNS_PER_CLIENT = 4
WINDOWS = (0.0, 0.5)


def _spec(protocol, seed, window, read_fraction=0.5,
          failures=None, retries=0):
    return ExperimentSpec(
        protocol=protocol, processors=PROCESSORS,
        objects=PROCESSORS * CLIENTS * 2, seed=seed,
        duration=200.0, grace=60.0,
        workload=WorkloadSpec(read_fraction=read_fraction, ops_per_txn=2,
                              mean_interarrival=6.0),
        config=ProtocolConfig(delta=1.0, batch_window=window),
        clients=CLIENTS, txns_per_client=TXNS_PER_CLIENT,
        objects_for=PrivateObjects(CLIENTS),
        failures=failures, retries=retries, check=True,
    )


def _committed_txn_ids(result):
    return {record.txn for record in result.cluster.history.committed()}


def _committed_write_tags(result):
    """Retry-stable identities: the workload tags its written values
    ``{tag}#{txn_id}/{index}``, and a retried transaction keeps its
    tag while drawing a fresh txn id."""
    tags = set()
    for record in result.cluster.history.committed():
        for op in record.logical_ops:
            if op.kind == "w":
                tags.add(str(op.value).split("#")[0])
    return tags


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("protocol",
                         ["virtual-partitions", "rowa", "quorum"])
def test_batching_preserves_commits_and_serializability(protocol, seed):
    plain, batched = (
        run_experiment(_spec(protocol, seed, window)) for window in WINDOWS)
    expected = PROCESSORS * CLIENTS * TXNS_PER_CLIENT
    assert plain.committed == batched.committed == expected
    assert _committed_txn_ids(plain) == _committed_txn_ids(batched)
    assert plain.one_copy_ok is True
    assert batched.one_copy_ok is True
    # and the comparison is not vacuous: batching actually coalesced
    assert plain.network["envelopes"] == plain.network["sent"]
    assert batched.network["envelopes"] < batched.network["sent"]


def test_batching_transparent_across_partition_and_heal():
    """The real coalescing case: a view change floods same-destination
    traffic (probes, invites, accepts), and the isolated processor's
    transactions retry until the partition heals."""
    def schedule(cluster):
        cluster.injector.partition_at(30.0, [{1, 2, 3, 4}, {5}])
        cluster.injector.heal_all_at(60.0)

    plain, batched = (
        run_experiment(_spec("virtual-partitions", seed=7, window=window,
                             read_fraction=0.0, failures=schedule,
                             retries=25))
        for window in WINDOWS)
    expected = PROCESSORS * CLIENTS * TXNS_PER_CLIENT
    assert len(_committed_write_tags(plain)) == expected
    assert _committed_write_tags(plain) == _committed_write_tags(batched)
    assert plain.one_copy_ok is True
    assert batched.one_copy_ok is True
    assert batched.network["envelopes"] < batched.network["sent"]
