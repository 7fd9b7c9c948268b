"""E14 — robustness under adversarial nemesis campaigns, by protocol.

The campaign hunter's fault planner (directed cuts, delay surges, grey
loss, duplication storms, flapping, crashes, partitions) doubles as a
robustness benchmark: fan the same fixed-seed campaigns over each
protocol with the runtime invariant auditor and the 1SR checker armed,
and report how often the protocol is convicted and how much
availability (commit rate) it keeps while faults rage.

Expected shape: virtual partitions and quorum survive every campaign
with zero auditor/1SR violations — they buy that safety with aborts, so
their commit rate drops as the mix gets nastier.  The naive-view
strawman commits more (it never refuses stale views) and pays for it
with 1SR convictions.
"""

from __future__ import annotations

from repro.net.nemesis import NemesisMix
from repro.workload.hunt import HuntConfig, campaign_spec, hunt_base, plan_campaigns, verdict_of
from repro.workload.parallel import run_many
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

PROTOCOLS = ["virtual-partitions", "quorum", "naive-view"]
MIXES = {
    # the hunter's default diet: every fault class, equal-ish weights
    "baseline": NemesisMix(),
    # mostly clean splits and flapping links — the paper's home turf
    "partition-heavy": NemesisMix(crash=0.5, cut=2.0, oneway=1.0,
                                  surge=0.5, grey=0.5, dup=0.25,
                                  flap=1.0, partition=3.0),
}
SMOKE = {"campaigns": 3, "protocols": ["virtual-partitions", "naive-view"],
         "mixes": ("baseline",)}


def campaign_outcomes(protocol: str, mix: NemesisMix, campaigns: int,
                      seed: int = 0, workers=None) -> dict:
    """Run ``campaigns`` fixed-seed nemesis campaigns against one
    protocol and aggregate the verdicts."""
    cfg = HuntConfig(base=hunt_base(protocol=protocol), campaigns=campaigns,
                     seed=seed, mix=mix, workers=workers)
    plans = plan_campaigns(cfg)
    specs = [campaign_spec(cfg, actions, s) for s, actions in plans]
    results = run_many(specs, workers=workers)
    convicted = sum(verdict_of(r) is not None for r in results)
    return {
        "campaigns": campaigns,
        "committed": sum(r.committed for r in results),
        "aborted": sum(r.aborted for r in results),
        "commit_rate": (sum(r.committed for r in results)
                        / max(1, sum(r.attempted for r in results))),
        "audit_violations": sum(len(r.audit_violations) for r in results),
        "unserializable": sum(r.one_copy_ok is False for r in results),
        "convicted": convicted,
    }


def run(campaigns: int = 24, protocols=PROTOCOLS, mixes=tuple(MIXES),
        seed: int = 0, workers=None) -> dict:
    rows = []
    outcomes: dict = {}
    for mix_name in mixes:
        mix = MIXES[mix_name]
        for name in protocols:
            result = campaign_outcomes(name, mix, campaigns, seed=seed,
                                       workers=workers)
            outcomes[(mix_name, name)] = result
            rows.append([
                mix_name, name, result["commit_rate"],
                result["aborted"] / campaigns,
                result["audit_violations"], result["unserializable"],
                f"{result['convicted']}/{campaigns}",
            ])
    report(render_table(
        ["mix", "protocol", "commit rate", "aborts/camp",
         "audit viol", "not-1SR", "convicted"],
        rows,
        title=f"E14 Safety and availability under {campaigns} randomized "
              f"nemesis campaigns (seed {seed})",
    ))
    emit_metrics("nemesis", {
        f"{mix_name}.{name}.{key}": float(outcomes[(mix_name, name)][key])
        for mix_name, name in outcomes
        for key in ("commit_rate", "convicted", "audit_violations")
    })
    return outcomes


def check(outcomes: dict) -> None:
    """Deterministic assertions only: verdict counts for a fixed seed."""
    for (mix_name, name), result in outcomes.items():
        if name in ("virtual-partitions", "quorum"):
            assert result["convicted"] == 0, (
                f"{name} convicted under {mix_name}: {result}")
            assert result["audit_violations"] == 0
        assert result["committed"] > 0, f"{name}/{mix_name} committed nothing"
    naive = outcomes.get(("baseline", "naive-view"))
    if naive is not None:
        assert naive["convicted"] > 0, (
            "the naive-view canary must be convicted under the baseline mix")


def test_benchmark_nemesis(benchmark):
    outcomes = run_once(benchmark, run)
    check(outcomes)


if __name__ == "__main__":
    # --check runs the FULL campaign set (check_params omitted): the
    # verdict-count assertions are calibrated to the full fixed-seed run.
    bench_main("bench_nemesis", run, check, smoke=SMOKE)
