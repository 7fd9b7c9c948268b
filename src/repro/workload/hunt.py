"""Campaign hunter: search adversarial fault schedules for violations.

The hunter mechanizes the ROADMAP's "as many scenarios as you can
imagine": it plans randomized nemesis campaigns (directed cuts, delay
surges, grey loss, duplication storms, flapping, crashes, partitions),
fans them over the parallel sweep engine with the runtime invariant
auditor and the 1SR checker armed, and — when a campaign convicts the
protocol — greedily shrinks the fault schedule to a minimal,
deterministically replayable repro artifact.

Everything is derived from one hunt seed through named
:class:`~repro.sim.RandomStreams` substreams, and each campaign's
schedule is *planned up front* in the parent process: a plain list of
:class:`~repro.net.nemesis.FaultAction` records.  Deleting actions from
that list and replaying the rest is exactly what shrinking needs, and
it is why a written artifact reproduces bit-for-bit on any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from ..net.nemesis import FaultAction, NemesisMix, plan_nemesis
from ..shard.reshard import ReshardAction
from ..sim.rng import RandomStreams
from .failures import ScheduledNemesis
from .generator import WorkloadSpec
from .parallel import run_many
from .runner import (
    _RETIRED_KEYS,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
    spec_from_plain,
    spec_to_plain,
)


def hunt_base(**overrides) -> ExperimentSpec:
    """The experiment every campaign is a copy of, with ``overrides``
    applied: any :class:`ExperimentSpec` knob (placement, reshard,
    session, commit backend, ...) is hunted by setting it here.
    """
    return replace(ExperimentSpec(
        processors=4, objects=3, copies_per_object=3,
        txns_per_client=12, retries=3,
        workload=WorkloadSpec(read_fraction=0.6, mean_interarrival=25.0),
    ), **overrides)


@dataclass
class HuntConfig:
    """Everything one hunt needs; every field is deterministic input."""

    #: the campaign template; ``seed``, ``duration``, ``grace``,
    #: ``failures``, ``check`` and ``audit`` are set per campaign
    base: ExperimentSpec = field(default_factory=hunt_base)
    seed: int = 0
    campaigns: int = 50
    #: last instant a fault may start; every hold is clamped to it
    fault_horizon: float = 180.0
    #: extra run time after ``fault_horizon`` for views and recoveries
    #: to settle (flap tails and probe rounds need room)
    settle: float = 150.0
    workers: Optional[int] = None
    #: max experiment re-runs the shrinker may spend per finding
    shrink_budget: int = 48
    #: stop hunting after this many findings (0 = run all campaigns)
    stop_after: int = 1
    mix: NemesisMix = field(default_factory=NemesisMix)
    mean_gap: float = 25.0
    #: long holds let faults outlive view-refresh periods — partitions
    #: that heal before anyone refreshes a view convict nothing
    mean_hold: float = 40.0
    burst: Tuple[int, int] = (1, 2)
    start: float = 10.0


@dataclass
class HuntFinding:
    """One convicted campaign, before and after shrinking."""

    campaign: int
    seed: int
    verdict: str
    actions: Tuple[FaultAction, ...]
    shrunk: Optional[Tuple[FaultAction, ...]] = None
    shrunk_verdict: Optional[str] = None
    shrink_runs: int = 0
    artifact: Optional[str] = None


@dataclass
class HuntReport:
    """The outcome of a whole hunt."""

    config: HuntConfig
    campaigns_run: int
    findings: List[HuntFinding]

    @property
    def survived(self) -> bool:
        return not self.findings


def campaign_spec(cfg: HuntConfig, actions: Tuple[FaultAction, ...],
                  seed: int) -> ExperimentSpec:
    """The experiment one campaign runs: auditor on, 1SR check on."""
    return replace(cfg.base, seed=seed, duration=cfg.fault_horizon,
                   grace=cfg.settle, check=True, audit=True,
                   failures=ScheduledNemesis(tuple(actions)))


def verdict_of(result: ExperimentResult) -> Optional[str]:
    """None = clean; otherwise a one-line description of the conviction."""
    if result.audit_violations:
        first = result.audit_violations[0]
        return (f"auditor: {len(result.audit_violations)} violation(s), "
                f"first {first['invariant']} at t={first['time']:.2f} "
                f"p{first['pid']}: {first['detail']}")
    if result.one_copy_ok is False:
        return f"1SR violation: {result.one_copy_violation}"
    return None


def plan_campaigns(cfg: HuntConfig) -> List[Tuple[int, Tuple[FaultAction, ...]]]:
    """Derive every campaign's (run seed, fault schedule) from the hunt
    seed — the parent plans, children only replay."""
    streams = RandomStreams(cfg.seed)
    pids = list(range(1, cfg.base.processors + 1))
    campaigns = []
    for k in range(cfg.campaigns):
        rng = streams.stream(f"nemesis-{k}")
        actions = tuple(plan_nemesis(
            rng, pids, cfg.mix, horizon=cfg.fault_horizon, start=cfg.start,
            mean_gap=cfg.mean_gap, burst=cfg.burst, mean_hold=cfg.mean_hold,
        ))
        seed = streams.stream(f"campaign-{k}").randrange(1 << 30)
        campaigns.append((seed, actions))
    return campaigns


def shrink_schedule(cfg: HuntConfig, seed: int,
                    actions: Tuple[FaultAction, ...],
                    budget: int) -> Tuple[Tuple[FaultAction, ...], int]:
    """Greedy ddmin: drop chunks of the schedule while the run still
    convicts.  Returns (smallest failing schedule found, runs spent)."""

    def still_fails(candidate: Tuple[FaultAction, ...]) -> bool:
        result = run_experiment(campaign_spec(cfg, candidate, seed))
        return verdict_of(result) is not None

    current = list(actions)
    runs = 0
    granularity = 2
    while len(current) >= 1 and runs < budget:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for i in range(0, len(current), chunk):
            if runs >= budget:
                break
            candidate = tuple(current[:i] + current[i + chunk:])
            runs += 1
            if still_fails(candidate):
                current = list(candidate)
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single action can be dropped
            granularity = min(len(current), granularity * 2)
    return tuple(current), runs


def write_artifact(path: Path, cfg: HuntConfig,
                   finding: HuntFinding) -> None:
    """Persist a finding as a self-contained, replayable JSON repro."""
    actions = finding.shrunk if finding.shrunk is not None else finding.actions
    spec = campaign_spec(cfg, actions, finding.seed)
    data = {
        "spec": spec_to_plain(replace(spec, failures=None)),
        "actions": [a.to_dict() for a in actions],
        "hunt_seed": cfg.seed,
        "campaign": finding.campaign,
        "verdict": finding.shrunk_verdict or finding.verdict,
        "original_action_count": len(finding.actions),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _flat_spec(data: dict) -> ExperimentSpec:
    """The campaign spec of an artifact written before the ``"spec"``
    section existed (PR <= 12): one flat key per hunt knob of the time.

    Frozen: old files are input from outside the program, so this key
    list stays readable as is and is never extended — knobs added since
    travel inside ``"spec"``.
    """
    plain = {key: data[key] for key in (
        "protocol", "processors", "objects", "copies_per_object",
        "retries", "txns_per_client")}
    plain.update(
        seed=data["run_seed"], duration=data["fault_horizon"],
        grace=data["settle"], check=True, audit=True,
        placement=data.get("placement"),
        commit_backend=data.get("commit_backend"),
        workload={key: data[key]
                  for key in ("read_fraction", "mean_interarrival")})
    if data.get("cache_capacity", 0) > 0 or data.get("lease_duration", 0) > 0:
        plain["session"] = {
            key: data[key] for key in (
                "cache_capacity", "cache_policy", "lease_duration")
            if key in data}
    if not data.get("reshard_guarded", True):
        why = _RETIRED_KEYS["reshard.guarded"][1]
        raise ValueError(f"reshard_guarded is False: {why}; this "
                         "artifact cannot be replayed")
    reshard = None
    if data.get("reshard_at", 0) > 0 and data.get("reshard_spares", 0) > 0:
        reshard = (ReshardAction.onto_spares(
            data["processors"], data["reshard_spares"], data["reshard_at"]),)
    return replace(spec_from_plain(plain), reshard=reshard)


def load_artifact(path: Path) -> Tuple[ExperimentSpec, dict]:
    """Rebuild the experiment an artifact pins, fault schedule attached."""
    data = json.loads(Path(path).read_text())
    spec = (spec_from_plain(data["spec"]) if "spec" in data
            else _flat_spec(data))
    actions = tuple(FaultAction.from_dict(d) for d in data["actions"])
    return replace(spec, failures=ScheduledNemesis(actions)), data


def replay_artifact(path: Path) -> Tuple[Optional[str], ExperimentResult]:
    """Re-run an artifact's schedule; returns (verdict, result)."""
    spec, _data = load_artifact(path)
    result = run_experiment(spec)
    return verdict_of(result), result


def hunt(cfg: HuntConfig, out_dir: Optional[Path] = None,
         log=None) -> HuntReport:
    """Run the campaign fleet; shrink and persist every finding.

    Campaigns execute in chunks through :func:`run_many` so a hunt with
    ``stop_after`` set stops fanning out soon after it has what it came
    for.  Shrinking runs serially in-process (each step depends on the
    last verdict).
    """
    say = log if log is not None else (lambda _msg: None)
    if out_dir is not None:
        # a template no artifact can pin fails now, not after the
        # campaigns and the shrink budget are spent
        spec_to_plain(replace(cfg.base, failures=None))
    campaigns = plan_campaigns(cfg)
    findings: List[HuntFinding] = []
    chunk_size = max(4, 2 * (cfg.workers or 1))
    ran = 0
    for lo in range(0, len(campaigns), chunk_size):
        batch = campaigns[lo:lo + chunk_size]
        specs = [campaign_spec(cfg, actions, seed) for seed, actions in batch]
        results = run_many(specs, workers=cfg.workers)
        for offset, result in enumerate(results):
            k = lo + offset
            ran += 1
            verdict = verdict_of(result)
            if verdict is None:
                continue
            seed, actions = campaigns[k]
            say(f"campaign {k}: CONVICTED — {verdict}")
            findings.append(HuntFinding(
                campaign=k, seed=seed, verdict=verdict, actions=actions,
            ))
        if cfg.stop_after and len(findings) >= cfg.stop_after:
            break
    for finding in findings:
        if cfg.shrink_budget > 0:
            say(f"campaign {finding.campaign}: shrinking "
                f"{len(finding.actions)} actions "
                f"(budget {cfg.shrink_budget} runs)")
            shrunk, spent = shrink_schedule(
                cfg, finding.seed, finding.actions, cfg.shrink_budget)
            finding.shrunk = shrunk
            finding.shrink_runs = spent
            confirm = run_experiment(
                campaign_spec(cfg, shrunk, finding.seed))
            finding.shrunk_verdict = verdict_of(confirm)
            say(f"campaign {finding.campaign}: shrunk to {len(shrunk)} "
                f"actions in {spent} runs — {finding.shrunk_verdict}")
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / (f"hunt-{cfg.base.protocol}-s{cfg.seed}"
                              f"-c{finding.campaign}.json")
            write_artifact(path, cfg, finding)
            finding.artifact = str(path)
            say(f"campaign {finding.campaign}: artifact written to {path}")
    return HuntReport(config=cfg, campaigns_run=ran, findings=findings)
