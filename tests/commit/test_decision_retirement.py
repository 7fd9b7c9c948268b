"""The coordinator decision log must not grow with history.

Before this fix every decided transaction left a permanent entry in the
coordinator's in-memory ``decisions`` map.  Entries are now retired as
soon as the decide fan-out has left (the forced WAL record remains the
durable authority for late ``txn-status`` queries), so the map holds
only in-flight transactions no matter how long the run.
"""

from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment


def test_decision_map_stays_bounded_over_long_run():
    result = run_experiment(ExperimentSpec(
        processors=4, objects=6, seed=5, duration=600.0, grace=80.0,
        workload=WorkloadSpec(read_fraction=0.4, mean_interarrival=5.0),
        clients=2, retries=2,
    ))
    decided = result.committed + result.aborted
    assert decided > 100, "run too small to show growth"
    cluster = result.cluster
    for pid in cluster.pids:
        live = len(cluster.protocol(pid).commit.decisions)
        assert live <= 2, (
            f"p{pid} still holds {live} decision entries after the "
            "grace period: retirement is not happening"
        )
    totals = cluster.metrics
    # every commit retires its entry (aborts without a prepare round
    # never open one), so the counter scales with the decided load
    assert totals.decisions_retired >= result.committed
