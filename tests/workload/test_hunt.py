"""Tests for the campaign hunter: conviction, shrinking, replay."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.client.session import SessionSpec
from repro.core.config import ProtocolConfig
from repro.shard import ReshardAction
from repro.workload import ExperimentSpec, ScheduledNemesis, WorkloadSpec
from repro.workload.hunt import (
    HuntConfig,
    HuntFinding,
    campaign_spec,
    hunt,
    hunt_base,
    load_artifact,
    plan_campaigns,
    replay_artifact,
    verdict_of,
    write_artifact,
)
from repro.workload.runner import (
    run_experiment,
    spec_from_plain,
    spec_to_plain,
    with_paths,
)

FLAT_FIXTURE = (Path(__file__).parent / "fixtures"
                / "hunt-naive-view-s0-c0.flat.json")
#: one named edge of a printed 1SR cycle, e.g. ``(1,2) -rw o1→ (3,1)``
EDGE = re.compile(r"\S+ -(wr|ww|rw) \S+→ \S+")

SHARDED = dict(processors=9, objects=12, copies_per_object=3,
               placement="hash-ring")
LEASED = SessionSpec(cache_capacity=4, cache_policy="write-back",
                     lease_duration=5.0)
#: one template per CI hunt configuration
BASES = {
    "default": hunt_base(),
    "reshard": hunt_base(**SHARDED, reshard=(
        ReshardAction.onto_spares(9, 2, 30.0, guarded=False),)),
    "paxos": hunt_base(config=ProtocolConfig(commit_backend="paxos")),
    "session": hunt_base(session=LEASED),
}


def test_plan_campaigns_deterministic():
    cfg = HuntConfig(campaigns=5, seed=3)
    assert plan_campaigns(cfg) == plan_campaigns(cfg)


def test_plan_campaigns_vary_with_seed():
    one = plan_campaigns(HuntConfig(campaigns=3, seed=1))
    two = plan_campaigns(HuntConfig(campaigns=3, seed=2))
    assert one != two


def test_campaign_schedules_differ_between_campaigns():
    plans = plan_campaigns(HuntConfig(campaigns=3, seed=0))
    schedules = [actions for _seed, actions in plans]
    assert schedules[0] != schedules[1] != schedules[2]


def test_naive_view_canary_convicts(tmp_path):
    """The acceptance canary: with the fixed default seed, a small
    hunt budget convicts naive-view's stale-view 1SR violation, the
    schedule shrinks, and the artifact replays deterministically."""
    report = hunt(HuntConfig(base=hunt_base(protocol="naive-view"),
                             campaigns=30, seed=0, stop_after=1, workers=1),
                  out_dir=tmp_path)
    assert not report.survived, "naive-view must be convicted"
    finding = report.findings[0]
    assert finding.campaign == 0
    # a conviction arrives with its cycle, before and after shrinking
    assert finding.verdict.startswith("1SR violation: ")
    assert EDGE.search(finding.verdict), finding.verdict
    assert EDGE.search(finding.shrunk_verdict), finding.shrunk_verdict
    assert finding.shrunk is not None
    assert len(finding.shrunk) <= len(finding.actions)
    assert finding.shrunk_verdict is not None, "shrunken repro must still fail"
    # the artifact is a self-contained deterministic repro
    verdict_a, _ = replay_artifact(finding.artifact)
    verdict_b, result = replay_artifact(finding.artifact)
    assert verdict_a == verdict_b == finding.shrunk_verdict
    data = json.loads(Path(finding.artifact).read_text())
    assert data["spec"]["protocol"] == "naive-view"
    assert data["verdict"] == finding.shrunk_verdict
    assert len(data["actions"]) == len(finding.shrunk)


def test_campaign_past_the_old_search_limit_is_convicted():
    """Hunt seed 0, campaign 3: 18 commits.  The order search this
    checker replaced was exact up to 14 transactions and passed this run
    as "inconclusive"; the graph convicts it, and says why."""
    cfg = HuntConfig(base=hunt_base(protocol="naive-view"), seed=0,
                     campaigns=4)
    seed, actions = plan_campaigns(cfg)[3]
    result = run_experiment(campaign_spec(cfg, actions, seed))
    assert result.committed == 18
    assert result.audit_violations == ()
    assert result.one_copy_ok is False
    verdict = verdict_of(result)
    assert verdict.startswith("1SR violation: (") and EDGE.search(verdict)


def test_virtual_partitions_survives_the_same_hunt():
    """Paired check: the VP protocol under the same seed and a larger
    budget produces zero findings (the full 200-campaign sweep runs in
    CI's hunt-smoke job)."""
    report = hunt(HuntConfig(campaigns=40, seed=0, stop_after=0,
                             shrink_budget=0, workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 40


def test_verdict_of_prefers_auditor_violations():
    class FakeResult:
        audit_violations = ({"invariant": "S2", "time": 1.0, "pid": 3,
                             "detail": "boom"},)
        one_copy_ok = True

    verdict = verdict_of(FakeResult())
    assert verdict is not None and "S2" in verdict


def test_verdict_of_an_unchecked_run_is_not_a_conviction():
    """``one_copy_ok is None`` has one meaning: ``spec.check`` was off."""
    class FakeResult:
        audit_violations = ()
        one_copy_ok = None

    assert verdict_of(FakeResult()) is None


def test_verdict_of_a_1sr_violation_names_the_cycle():
    class FakeResult:
        audit_violations = ()
        one_copy_ok = False
        one_copy_violation = "t0 -ww x→ t1 -rw x→ t0"

    assert verdict_of(FakeResult()) == (
        "1SR violation: t0 -ww x→ t1 -rw x→ t0")


def test_campaign_spec_is_the_template_plus_the_campaign():
    """The default hunt's campaign experiment, written out."""
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))
    assert campaign_spec(HuntConfig(), actions, seed) == ExperimentSpec(
        protocol="virtual-partitions", processors=4, objects=3,
        copies_per_object=3, seed=seed, duration=180.0, grace=150.0,
        workload=WorkloadSpec(read_fraction=0.6, ops_per_txn=2, zipf_s=0.0,
                              mean_interarrival=25.0),
        latency=None, config=None, failures=ScheduledNemesis(actions),
        retries=3, check=True, audit=True, trace=False, clients=1,
        txns_per_client=12, objects_for=None, placement=None,
        directory=None, directory_capacity=None, commit_backend=None,
        open_loop=False, session=None, reshard=None)


@pytest.mark.parametrize("base", BASES.values(), ids=BASES)
def test_campaign_spec_keeps_every_template_knob(base):
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))
    cfg = HuntConfig(base=base, fault_horizon=90.0, settle=40.0)
    assert campaign_spec(cfg, actions, seed) == replace(
        base, seed=seed, duration=90.0, grace=40.0, check=True, audit=True,
        failures=ScheduledNemesis(actions))


# -- sharded-topology hunts --------------------------------------------------


def test_vp_survives_sharded_hunt():
    """The pinned sharded regression campaign: the VP protocol on a
    hash-ring sharded 6-node topology (degree 3 — most objects have
    copies on only half the cluster) survives the fixed-seed nemesis
    sweep with zero auditor/1SR findings."""
    report = hunt(HuntConfig(base=hunt_base(processors=6, objects=12,
                                            placement="hash-ring"),
                             campaigns=25, seed=0,
                             stop_after=0, shrink_budget=0, workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 25


def test_naive_view_sharded_canary_convicts(tmp_path):
    """The sharded hunt has teeth: on a tight sharded topology the
    naive-view strawman is convicted of a 1SR violation, and the
    artifact records the placement so the repro replays sharded."""
    report = hunt(HuntConfig(base=hunt_base(protocol="naive-view", objects=6,
                                            placement="hash-ring"),
                             campaigns=10, seed=0,
                             stop_after=1, shrink_budget=0, workers=1),
                  out_dir=tmp_path)
    assert not report.survived
    finding = report.findings[0]
    assert finding.campaign == 1
    assert finding.verdict.startswith("1SR violation: ")
    assert EDGE.search(finding.verdict), finding.verdict
    data = json.loads(Path(finding.artifact).read_text())
    assert data["spec"]["placement"] == "hash-ring"
    verdict, _result = replay_artifact(finding.artifact)
    assert verdict == finding.verdict


# -- client-tier (cache + lease) hunts ---------------------------------------


def test_vp_survives_lease_armed_hunt():
    """The pinned client-tier regression campaign: with write-back
    caching and 5.0-time-unit leases armed, the auditor's lease-rule /
    lease-expired / lease-staleness checks ride every campaign of the
    fixed-seed nemesis sweep — and the VP protocol plus the
    epoch-revoking session survive with zero findings."""
    report = hunt(HuntConfig(base=hunt_base(session=LEASED), campaigns=40,
                             seed=0, stop_after=0, shrink_budget=0,
                             workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 40


def test_lease_armed_campaign_exercises_the_client_tier():
    """The survival above is not vacuous: the first campaign's client
    counters show leases granted and conservatively revoked, write-back
    flushes, and locally served reads."""
    cfg = HuntConfig(base=hunt_base(session=LEASED), campaigns=1, seed=0)
    (seed, actions), = plan_campaigns(cfg)
    result = run_experiment(campaign_spec(cfg, actions, seed))
    assert verdict_of(result) is None
    counters = result.registry.snapshot()["counters"]
    assert counters["client.lease.granted"] > 0
    assert counters["client.lease.revoked"] + counters[
        "client.lease.invalidated"] > 0
    assert counters["client.flush_writes"] > 0
    assert result.local_read_fraction > 0


# -- reshard-armed hunts -----------------------------------------------------


def test_vp_survives_reshard_armed_hunt():
    """Placement migrations raced against the full nemesis diet: the
    fixed-seed sweep expands a 9-processor hash ring onto 2 held-out
    spares at t=30 in every campaign, and the guarded cutover survives
    with zero auditor findings and zero 1SR violations."""
    base = hunt_base(**SHARDED,
                     reshard=(ReshardAction.onto_spares(9, 2, 30.0),))
    report = hunt(HuntConfig(base=base, campaigns=8, seed=0, stop_after=0,
                             shrink_budget=0, workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 8


# -- regressions for the protocol bugs the hunter caught ---------------------


@pytest.mark.parametrize("campaign", [160, 188, 191])
def test_vp_hunter_regression_campaigns_stay_clean(campaign):
    """Campaigns that convicted the VP protocol before its fixes:

    * 188/191 — a processor whose acceptance arrived after the 2delta
      window joined a committed view that excluded it (S2); fixed by
      the membership check in Monitor-VP-Creations.
    * 160 — a partition change during vote collection force-aborted the
      coordinator's own transaction, which then decided commit (R4/2PC
      atomicity); fixed by the poisoned-transaction guard in
      end_transaction.
    """
    cfg = HuntConfig(campaigns=200, seed=0)
    seed, actions = plan_campaigns(cfg)[campaign]
    result = run_experiment(campaign_spec(cfg, actions, seed))
    assert verdict_of(result) is None, result.audit_violations


# -- repro artifacts: plain-data specs ---------------------------------------


def _artifact(tmp_path, base) -> Path:
    cfg = HuntConfig(base=base)
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))
    path = tmp_path / "artifact.json"
    write_artifact(path, cfg, HuntFinding(campaign=0, seed=seed,
                                          verdict="x", actions=actions))
    return path


@pytest.mark.parametrize("base", BASES.values(), ids=BASES)
def test_spec_survives_plain_data_and_json(base):
    assert spec_from_plain(spec_to_plain(base)) == base
    assert spec_from_plain(json.loads(json.dumps(spec_to_plain(base)))) == base
    # nested records default their absent keys too
    assert spec_from_plain({"reshard": [{"time": 12.5, "add": [3]}]}) == (
        ExperimentSpec(reshard=(ReshardAction(time=12.5, add=(3,)),)))


@pytest.mark.parametrize("base", BASES.values(), ids=BASES)
def test_artifact_round_trips_the_campaign_spec(tmp_path, base):
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))
    spec, data = load_artifact(_artifact(tmp_path, base))
    assert spec == campaign_spec(HuntConfig(base=base), actions, seed)
    assert data["original_action_count"] == len(actions)


def _paths(plain: dict, prefix: str = ""):
    """Every dotted key path of a plain spec, nested sections included."""
    for key, value in plain.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


#: a spec with every optional section present, all knobs off-default
RICH = replace(
    BASES["reshard"], protocol="quorum", directory="cached",
    directory_capacity=7, commit_backend="paxos", open_loop=True, clients=2,
    trace=True,
    # write-back would make the cache_capacity default (0) invalid
    session=replace(LEASED, cache_policy="write-through"),
    config=ProtocolConfig(delta=2.0, pi=9.0, read_retry=True, cc="tso",
                          init_strategy="previous", catchup="log",
                          split_off_fastpath=True, weakened_r4=True,
                          lock_timeout_deltas=9.0, access_timeout_deltas=9.0,
                          commit_backend="paxos",
                          storage_append_cost=0.1, storage_sync_cost=0.2,
                          checkpoint_every=5, log_retain=3),
    workload=WorkloadSpec(read_fraction=0.3, ops_per_txn=3, zipf_s=1.1,
                          mean_interarrival=7.0))


@pytest.mark.parametrize("path", list(_paths(spec_to_plain(RICH))))
def test_absent_spec_key_loads_the_dataclass_default(tmp_path, path):
    """An artifact written before a knob existed lacks its key — at any
    nesting level — and must load with that knob at its default."""
    artifact = _artifact(tmp_path, RICH)
    written, _ = load_artifact(artifact)
    data = json.loads(artifact.read_text())
    section = data["spec"]
    *parents, leaf = path.split(".")
    for name in parents:
        section = section[name]
    del section[leaf]
    artifact.write_text(json.dumps(data))
    owner = written
    for name in parents:
        owner = getattr(owner, name)
    default = getattr(type(owner)(), leaf)
    assert getattr(owner, leaf) != default or leaf in (
        "cache_policy", "probe_phase")
    loaded, _ = load_artifact(artifact)
    assert loaded == with_paths(written, {path: default})


def _pin_batch_window(artifact, value):
    """Rewrite ``artifact`` as one recorded before PR 21 removed
    ``ProtocolConfig.batch_window``: ``asdict`` pinned every field."""
    data = json.loads(artifact.read_text())
    data["spec"]["config"]["batch_window"] = value
    artifact.write_text(json.dumps(data))


def test_retired_spec_key_at_its_default_is_dropped_on_load(tmp_path):
    artifact = _artifact(tmp_path, RICH)
    written, _ = load_artifact(artifact)
    _pin_batch_window(artifact, 0.0)
    loaded, _ = load_artifact(artifact)
    assert loaded == written


def test_retired_spec_key_off_its_default_is_refused(tmp_path):
    artifact = _artifact(tmp_path, RICH)
    _pin_batch_window(artifact, 0.5)
    with pytest.raises(ValueError) as refusal:
        load_artifact(artifact)
    assert "config.batch_window=0.5" in str(refusal.value)
    assert ("transport batching was removed in PR 21; this artifact "
            "cannot be replayed") in str(refusal.value)


def test_flat_artifact_from_before_the_spec_section_still_convicts(tmp_path):
    """The committed PR-12 artifact (flat key set, no ``"spec"``) loads
    through the frozen reader as the very experiment the current writer
    pins for the same campaign, and replays to the same conviction."""
    spec, data = load_artifact(FLAT_FIXTURE)
    assert "spec" not in data
    cfg = HuntConfig(base=hunt_base(protocol="naive-view",
                                    txns_per_client=3))  # PR 12's size
    assert spec == campaign_spec(cfg, spec.failures.actions, data["run_seed"])
    verdict, _result = replay_artifact(FLAT_FIXTURE)
    # the file stores PR 12's fixed sentence; a verdict now names its cycle
    assert data["verdict"].startswith("1SR violation")
    assert verdict.startswith("1SR violation")
    assert EDGE.search(verdict), verdict
    # flat files older still (PR <= 8) lack the keys later PRs added
    for key in ("placement", "commit_backend", "cache_capacity",
                "cache_policy", "lease_duration", "reshard_at",
                "reshard_spares", "reshard_guarded", "reshard_actions"):
        del data[key]
    older = tmp_path / "older.json"
    older.write_text(json.dumps(data))
    assert load_artifact(older)[0] == spec


@pytest.mark.parametrize("carried", [
    dict(latency=object()), dict(objects_for=len),
    dict(failures=ScheduledNemesis(())),
    dict(config=ProtocolConfig(probe_phase=float)),
])
def test_spec_carrying_a_callable_is_not_plain_data(carried):
    with pytest.raises(ValueError, match="not replayable"):
        spec_to_plain(hunt_base(**carried))


def test_hunt_refuses_an_unreplayable_template_before_any_campaign(
        tmp_path, monkeypatch):
    monkeypatch.setitem(hunt.__globals__, "run_many", pytest.fail)
    with pytest.raises(ValueError, match="objects_for"):
        hunt(HuntConfig(base=hunt_base(objects_for=len)), out_dir=tmp_path)
