"""Online resharding: the migration engine, end to end.

Unit coverage of :class:`ReshardAction` (the picklable schedule record
hunter artifacts carry) and engine validation, plus small simulations:
a guarded migration that must stay auditor-clean and 1SR (and whose
trace events are pinned), the deliberately unguarded flip the auditor
must convict, and a
coordinator crash mid-migration that must resume from the WAL journal
and finish the campaign.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.shard import ReshardAction, ReshardEngine, make_policy
from repro.workload import ExperimentSpec, run_experiment

pytestmark = pytest.mark.filterwarnings("error")


def reshard_spec(seed=3, guarded=True, failures=None, duration=140.0):
    """8 processors, two of them held out and joined live at t=40."""
    return ExperimentSpec(
        protocol="virtual-partitions",
        processors=8, objects=20, copies_per_object=3,
        placement="hash-ring", directory="cached", seed=seed,
        duration=duration, check=True, audit=True,
        failures=failures,
        reshard=(ReshardAction(time=40.0, add=(7, 8), guarded=guarded),),
    )


def engine_stats(result):
    return result.cluster.reshard_engine.stats


# -- schedule records --------------------------------------------------------


def test_onto_spares_expands_onto_the_highest_pids():
    assert ReshardAction.onto_spares(9, 2, 30.0) == ReshardAction(
        time=30.0, add=(8, 9))
    assert ReshardAction.onto_spares(
        4, 1, 5.0, guarded=False, coordinator=2) == ReshardAction(
        time=5.0, add=(4,), guarded=False, coordinator=2)
    for spares in (0, 4):
        with pytest.raises(ValueError, match="base ring"):
            ReshardAction.onto_spares(4, spares, 10.0)


def test_reshard_requires_placement_policy():
    spec = ExperimentSpec(
        protocol="virtual-partitions", processors=5, objects=5,
        seed=0, duration=50.0,
        reshard=(ReshardAction(time=10.0, add=(5,)),),
    )
    with pytest.raises(ValueError, match="placement policy"):
        run_experiment(spec)


def test_engine_rejects_stranger_and_engulfing_adds():
    from repro.cluster import Cluster
    from repro.shard import object_names

    cluster = Cluster(processors=3)
    policy = make_policy("hash-ring", degree=2)
    names = object_names(4)
    with pytest.raises(ValueError, match="not cluster members"):
        ReshardEngine(cluster, policy, names,
                      [ReshardAction(time=1.0, add=(9,))])
    with pytest.raises(ValueError, match="spare capacity"):
        ReshardEngine(cluster, policy, names,
                      [ReshardAction(time=1.0, add=(1, 2, 3))])


# -- simulations -------------------------------------------------------------


def test_guarded_reshard_stays_clean_and_serializable():
    result = run_experiment(reshard_spec())
    assert result.one_copy_ok is True
    assert result.audit_violations == ()
    stats = engine_stats(result)
    assert stats.campaigns_completed == 1
    assert stats.objects_moved > 0
    assert stats.objects_moved + stats.objects_unchanged == 20
    assert stats.flips == stats.objects_moved
    # install/retire traffic matches the movement
    assert result.metrics.reshard_installs > 0
    assert result.metrics.reshard_retires > 0


def test_reshard_trace_events_are_pinned():
    """The ``reshard.*`` events a traced guarded reshard leaves: one per
    install, retire and flip, with the install's ``source`` and the
    flip's ``epoch`` and sorted ``holders``.  Captured while each was
    still emitted at its own site, before they came through History."""
    result = run_experiment(replace(reshard_spec(), trace=True))
    events = [event.to_dict() for event in result.cluster.tracer.events
              if event.etype.startswith("reshard.")]
    assert Counter(event["e"] for event in events) == {
        "reshard.start": 1, "reshard.install": 13, "reshard.flip": 13,
        "reshard.retire": 13, "reshard.done": 1}
    first = {}
    for event in events:
        first.setdefault(event["e"], event)
    assert first["reshard.install"] == {
        "t": 45.0, "e": "reshard.install", "p": 7, "obj": "o1", "source": 1}
    assert first["reshard.flip"] == {
        "t": 48.0, "e": "reshard.flip", "p": 1, "epoch": 1,
        "holders": [1, 6, 7], "obj": "o1"}
    assert first["reshard.retire"] == {
        "t": 49.0, "e": "reshard.retire", "p": 3, "obj": "o1"}


def test_unguarded_flip_is_convicted_by_the_auditor():
    result = run_experiment(reshard_spec(guarded=False))
    kinds = {v["invariant"] for v in result.audit_violations}
    assert "orphan-copy" in kinds or "placement-epoch" in kinds


def test_coordinator_crash_resumes_from_journal():
    def crash_coordinator(cluster):
        # pid 1 drives the migration (lowest base pid); kill it right
        # after the campaign starts, bring it back much later
        cluster.injector.crash_at(41.0, 1)
        cluster.injector.recover_at(70.0, 1)

    result = run_experiment(reshard_spec(failures=crash_coordinator,
                                         duration=200.0))
    assert result.one_copy_ok is True
    assert result.audit_violations == ()
    stats = engine_stats(result)
    assert stats.resumes >= 1
    assert stats.campaigns_completed == 1
    assert stats.objects_moved + stats.objects_unchanged == 20
