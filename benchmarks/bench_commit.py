"""E17 — atomic-commit backends: 2PC vs Paxos Commit under coordinator loss.

Two measurements:

* **Blocking window** (deterministic single-transaction scenarios): a
  coordinator is crashed between the prepare round and the decide
  fan-out.  Under 2PC the prepared participants stay in doubt until the
  coordinator's WAL comes back — the dwell scales with the outage.
  Under Paxos Commit the surviving majority of acceptors lets recovery
  leaders finish the transaction without the coordinator, so the dwell
  is a few timeout rounds regardless of the outage length.
* **Nemesis campaigns** (crash-heavy randomized fault schedules, the
  hunter's machinery with the invariant auditor and 1SR checker armed):
  both backends must survive every campaign unconvicted; the table
  shows what Paxos Commit's acceptor round costs in messages per
  transaction and what it buys in in-doubt dwell.
"""

from __future__ import annotations

import math

from repro import Cluster, ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.net.nemesis import NemesisMix
from repro.workload.hunt import HuntConfig, campaign_spec, hunt_base, plan_campaigns, verdict_of
from repro.workload.parallel import run_many
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

BACKENDS = ["2pc", "paxos"]
#: crash-heavy diet: the coordinator-loss hole E17 is about, plus
#: enough partitions and link trouble to keep the resolvers honest
CRASH_MIX = NemesisMix(crash=3.0, cut=1.0, oneway=0.5, surge=0.5,
                       grey=0.5, dup=0.25, flap=0.5, partition=1.0)
SMOKE = {"campaigns": 2}

TXN = (1, 1)


def blocking_window(backend: str, recover_after=None) -> dict:
    """Crash the coordinator between prepare and decide; measure how
    long the prepared participants dwell in doubt.  ``recover_after``
    sim-units later the coordinator comes back (None = never)."""
    config = ProtocolConfig(delta=4.0, storage_sync_cost=3.0,
                            commit_backend=backend)
    cluster = Cluster(processors=3, seed=3, config=config, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    cluster.write_once(1, "x", 7)

    def prepared_everywhere() -> bool:
        if backend == "2pc":
            # the decision is logged; the decide fan-out is waiting out
            # the storage sync and has not left yet
            return cluster.processor(1).store.decision_of(TXN) == "commit"
        # paxos: every ballot-0 vote accepted at a majority of acceptors
        def accepted(pid, rm):
            value = cluster.processor(pid).store.cell(f"px:{TXN}:{rm}")
            return value is not None and value[1] is not None

        return all(sum(accepted(pid, rm) for pid in (1, 2, 3)) >= 2
                   for rm in (1, 2, 3))

    while not prepared_everywhere():
        cluster.sim.run(until=cluster.sim.now + 0.25)
        assert cluster.sim.now < 120.0, "prepare phase never completed"
    (recover,) = apply_schedule(cluster.injector, [
        FaultAction(cluster.sim.now + 0.1, "crash", (1,), math.inf)])
    if recover_after is not None:
        cluster.injector.at(cluster.sim.now + recover_after, *recover)
    horizon = (recover_after or 0.0) + 8 * cluster.config.access_timeout
    cluster.run(until=cluster.sim.now + horizon)

    dwells = cluster.metrics.in_doubt_dwell
    resolved = all(TXN not in cluster.protocol(pid).commit.in_doubt
                   for pid in (2, 3))
    return {
        "backend": backend,
        "recover_after": recover_after,
        "resolved": resolved,
        "dwell": max(dwells) if resolved and dwells else None,
        "status": cluster.history.txns[TXN].status,
        "audit_violations": len(cluster.auditor.violations),
    }


def campaign_outcomes(backend: str, campaigns: int, seed: int = 0,
                      workers=None) -> dict:
    """Fixed-seed crash-heavy nemesis campaigns against one backend."""
    cfg = HuntConfig(base=hunt_base(commit_backend=backend),
                     campaigns=campaigns, seed=seed, mix=CRASH_MIX,
                     workers=workers)
    plans = plan_campaigns(cfg)
    specs = [campaign_spec(cfg, actions, s) for s, actions in plans]
    results = run_many(specs, workers=workers)
    committed = sum(r.committed for r in results)
    dwell_count, dwell_sum, dwell_max = 0, 0.0, 0.0
    for r in results:
        summary = (r.registry.snapshot()["histograms"]
                   .get("txn.in_doubt_dwell", {"count": 0}))
        if summary["count"]:
            dwell_count += summary["count"]
            dwell_sum += summary["sum"]
            dwell_max = max(dwell_max, summary["max"])
    per_txn = [r.txn_messages_per_committed_txn
               for r in results if r.committed]
    return {
        "campaigns": campaigns,
        "committed": committed,
        "aborted": sum(r.aborted for r in results),
        "commit_rate": committed / max(1, sum(r.attempted for r in results)),
        "txn_msgs_per_commit": (sum(per_txn) / len(per_txn)
                                if per_txn else 0.0),
        "in_doubt_count": dwell_count,
        "in_doubt_dwell_mean": dwell_sum / dwell_count if dwell_count else 0.0,
        "in_doubt_dwell_max": dwell_max,
        "audit_violations": sum(len(r.audit_violations) for r in results),
        "unserializable": sum(r.one_copy_ok is False for r in results),
        "convicted": sum(verdict_of(r) is not None for r in results),
    }


def run(campaigns: int = 20, backends=tuple(BACKENDS), seed: int = 0,
        workers=None) -> dict:
    windows = [
        blocking_window("2pc", recover_after=None),
        blocking_window("2pc", recover_after=240.0),
        blocking_window("paxos", recover_after=None),
    ]
    window_rows = []
    for w in windows:
        recover = ("never" if w["recover_after"] is None
                   else f"{w['recover_after']:g}")
        dwell = "blocked" if w["dwell"] is None else f"{w['dwell']:.1f}"
        window_rows.append([w["backend"], recover, dwell, w["status"],
                            w["audit_violations"]])
    report(render_table(
        ["backend", "coordinator back", "in-doubt dwell", "txn status",
         "audit viol"],
        window_rows,
        title="E17a Blocking window: coordinator crashed between "
              "prepare and decide",
    ))

    outcomes: dict = {"windows": windows, "campaigns": {}}
    rows = []
    for backend in backends:
        result = campaign_outcomes(backend, campaigns, seed=seed,
                                   workers=workers)
        outcomes["campaigns"][backend] = result
        rows.append([
            backend, f"{result['commit_rate']:.2f}",
            f"{result['txn_msgs_per_commit']:.1f}",
            f"{result['in_doubt_dwell_mean']:.1f}",
            f"{result['in_doubt_dwell_max']:.1f}",
            result["audit_violations"], result["unserializable"],
            f"{result['convicted']}/{campaigns}",
        ])
    report(render_table(
        ["backend", "commit rate", "txn msgs/commit", "dwell mean",
         "dwell max", "audit viol", "not-1SR", "convicted"],
        rows,
        title=f"E17b Crash-heavy nemesis campaigns per commit backend "
              f"({campaigns} campaigns, seed {seed})",
    ))
    emit_metrics("commit", {
        **{f"window.{w['backend']}."
           f"{'recover' if w['recover_after'] is not None else 'norecover'}"
           ".dwell": (-1.0 if w["dwell"] is None else w["dwell"])
           for w in windows},
        **{f"{backend}.{key}": float(outcomes["campaigns"][backend][key])
           for backend in outcomes["campaigns"]
           for key in ("commit_rate", "txn_msgs_per_commit",
                       "in_doubt_dwell_mean", "in_doubt_dwell_max",
                       "audit_violations", "convicted")},
    })
    return outcomes


def check(outcomes: dict) -> None:
    """Deterministic assertions only (fixed seeds, simulated time)."""
    by_key = {(w["backend"], w["recover_after"]) for w in outcomes["windows"]}
    assert by_key == {("2pc", None), ("2pc", 240.0), ("paxos", None)}
    windows = {(w["backend"], w["recover_after"] is not None): w
               for w in outcomes["windows"]}
    blocked = windows[("2pc", False)]
    recovered = windows[("2pc", True)]
    nonblocking = windows[("paxos", False)]
    # 2PC: blocked until the coordinator's WAL returns
    assert not blocked["resolved"] and blocked["dwell"] is None
    assert recovered["resolved"] and recovered["dwell"] >= 240.0
    assert recovered["status"] == "committed"
    # Paxos Commit: decided by the surviving majority, coordinator down
    assert nonblocking["resolved"]
    assert nonblocking["status"] == "committed"
    assert nonblocking["dwell"] < recovered["dwell"]
    for w in outcomes["windows"]:
        assert w["audit_violations"] == 0, w
    for backend, result in outcomes["campaigns"].items():
        assert result["committed"] > 0, f"{backend} committed nothing"
        assert result["audit_violations"] == 0, f"{backend}: {result}"
        assert result["unserializable"] == 0, f"{backend}: {result}"
        assert result["convicted"] == 0, f"{backend}: {result}"


def test_benchmark_commit(benchmark):
    outcomes = run_once(benchmark, run)
    check(outcomes)


if __name__ == "__main__":
    bench_main("bench_commit", run, check, smoke=SMOKE)
