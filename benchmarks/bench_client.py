"""E18 — client tier: session caching and lease-based local reads.

The client-tier claim: on Zipf-skewed hot-key workloads, a per-client
LRU cache plus lease-based bounded-staleness reads cuts p50/p99 client
latency below the no-session baseline at equal or lower messages per
committed program — while every cell stays 1SR (the protocol history is
untouched by local serves) and the runtime auditor's lease-staleness
check stays clean.

The sweep crosses cache policy (none / write-through / write-back) with
lease duration (off / short / the full probe period pi) and read
fraction, per protocol.  Lease cells run only on the virtual-partitions
family: the staleness bound L + Delta is anchored to the C6 window, so
view-less protocols get the cache rows only.  The open-loop Poisson
driver is on everywhere, so latency includes queueing — the number a
client would actually see.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.workload.parallel import run_many
from repro.workload.runner import ExperimentSpec, run_experiment
from repro.workload.generator import WorkloadSpec
from repro.workload.tables import format_quantiles, render_table

from _shared import bench_main, emit_metrics, report, run_once

#: protocols whose view state can anchor the C6 staleness bound
LEASE_PROTOCOLS = frozenset({"virtual-partitions"})
PROTOCOLS = ("virtual-partitions", "majority")
READ_FRACTIONS = (0.6, 0.9)
#: short lease vs the longest legal lease (L <= pi, default pi = 10)
LEASE_DURATIONS = (2.5, 10.0)
CACHE_CAPACITY = 8
ZIPF_S = 1.2
#: every cell's protocol config, named here because the staleness bound
#: L + Δ is derived from it after the run — pooled results come home
#: without their cluster, so the bound cannot be read off that
CONFIG = ProtocolConfig(delta=1.0)

SMOKE = {"protocols": ("virtual-partitions",), "read_fractions": (0.9,),
         "lease_durations": (10.0,), "txns_per_client": 4}


def session_grid(protocol: str, lease_durations) -> list:
    """The (label, SessionSpec-or-None) cells one protocol sweeps."""
    from repro.client.session import SessionSpec

    cells = [
        ("baseline", None),
        ("cache-wt", SessionSpec(cache_capacity=CACHE_CAPACITY)),
        ("cache-wb", SessionSpec(cache_capacity=CACHE_CAPACITY,
                                 cache_policy="write-back")),
    ]
    if protocol in LEASE_PROTOCOLS:
        for duration in lease_durations:
            cells.append((f"lease-{duration:g}",
                          SessionSpec(lease_duration=duration)))
            cells.append((f"wb+lease-{duration:g}",
                          SessionSpec(cache_capacity=CACHE_CAPACITY,
                                      cache_policy="write-back",
                                      lease_duration=duration)))
    return cells


def cell_spec(protocol: str, label: str, session, read_fraction: float,
              txns_per_client: int, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=protocol,
        processors=4,
        objects=12,
        seed=seed,
        duration=300.0,
        grace=120.0,
        workload=WorkloadSpec(read_fraction=read_fraction, zipf_s=ZIPF_S,
                              mean_interarrival=5.0),
        config=CONFIG,
        retries=3,
        check=True,
        audit=True,
        txns_per_client=txns_per_client,
        open_loop=True,
        session=session,
    )


def cell_outcome(protocol: str, label: str, session,
                 read_fraction: float, result) -> dict:
    snapshot = result.registry.snapshot()
    histograms = snapshot["histograms"]
    program_latency = result.latency_summary()
    # a baseline read completes when its transaction commits, which is
    # exactly what sessions record for remote reads — so the program
    # latency histogram is the baseline's read-latency distribution
    read_latency = histograms.get("client.read_latency", program_latency)
    staleness = histograms.get("client.staleness", {"count": 0})
    lease = session.lease_duration if session is not None else 0.0
    bound = None
    if lease > 0:
        bound = lease + CONFIG.liveness_bound
    return {
        "protocol": protocol,
        "label": label,
        "read_fraction": read_fraction,
        "lease": lease,
        "committed": result.committed,
        "programs": result._client_counter("client.programs_committed")
        or result.committed,
        "p50": result.latency_p50,
        "p99": result.latency_p99,
        "read_latency": read_latency,
        "program_latency": program_latency,
        "staleness": staleness,
        "staleness_bound": bound,
        "msgs_per_program": result.messages_per_client_program,
        "local_read_fraction": result.local_read_fraction,
        "one_copy_ok": result.one_copy_ok,
        "audit_violations": len(result.audit_violations),
    }


def run(protocols=PROTOCOLS, read_fractions=READ_FRACTIONS,
        lease_durations=LEASE_DURATIONS, txns_per_client: int = 10,
        seed: int = 18, workers=None) -> list:
    cells = [
        (protocol, label, session, rf)
        for protocol in protocols
        for label, session in session_grid(protocol, lease_durations)
        for rf in read_fractions
    ]
    specs = [cell_spec(protocol, label, session, rf, txns_per_client, seed)
             for protocol, label, session, rf in cells]
    results = run_many(specs, workers=workers)
    outcomes = [cell_outcome(protocol, label, session, rf, result)
                for (protocol, label, session, rf), result
                in zip(cells, results)]

    rows = []
    for o in outcomes:
        rows.append([
            o["protocol"], o["label"], f"{o['read_fraction']:g}",
            o["programs"],
            f"{o['local_read_fraction']:.2f}",
            format_quantiles(o["read_latency"]),
            f"{o['p50']:.1f}/{o['p99']:.1f}",
            format_quantiles(o["staleness"], ("p50", "max")),
            f"{o['msgs_per_program']:.1f}",
            "yes" if o["one_copy_ok"] else "NO",
            o["audit_violations"],
        ])
    report(render_table(
        ["protocol", "session", "rf", "programs", "local reads",
         "read p50/p99", "prog p50/p99", "stale p50/max", "msgs/prog",
         "1SR", "audit viol"],
        rows,
        title=f"E18 Client tier: cache policy x lease duration x read "
              f"fraction (zipf s={ZIPF_S}, open loop, seed {seed})",
    ))
    emit_metrics("client", {
        f"{o['protocol']}.{o['label']}.rf{o['read_fraction']:g}.{key}":
        float(o[key])
        for o in outcomes
        for key in ("p50", "p99", "msgs_per_program", "local_read_fraction")
    })
    return outcomes


def check(outcomes: list) -> None:
    """Deterministic assertions only (fixed seeds, simulated time)."""
    for o in outcomes:
        where = f"{o['protocol']}/{o['label']}/rf{o['read_fraction']}"
        assert o["one_copy_ok"] is True, f"{where}: not provably 1SR"
        assert o["audit_violations"] == 0, f"{where}: auditor convicted"
        assert o["programs"] > 0, f"{where}: nothing committed"
        if o["label"] != "baseline":
            assert o["local_read_fraction"] > 0, \
                f"{where}: session tier served nothing locally"
        if o["staleness_bound"] is not None and o["staleness"]["count"]:
            assert o["staleness"]["max"] <= o["staleness_bound"] + 1e-9, \
                f"{where}: staleness {o['staleness']['max']} over bound"

    by_cell = {(o["protocol"], o["label"], o["read_fraction"]): o
               for o in outcomes}
    protocols = {o["protocol"] for o in outcomes}
    fractions = sorted({o["read_fraction"] for o in outcomes})
    leases = sorted({o["lease"] for o in outcomes if o["lease"] > 0})
    for protocol in protocols:
        best = (f"wb+lease-{max(leases):g}"
                if protocol in LEASE_PROTOCOLS and leases else "cache-wb")
        for rf in fractions:
            baseline = by_cell[(protocol, "baseline", rf)]
            session = by_cell[(protocol, best, rf)]
            where = f"{protocol}/{best}/rf{rf}"
            # the headline: latency measurably below the baseline at
            # equal-or-lower message cost per committed program
            assert session["p50"] < baseline["p50"], \
                f"{where}: p50 {session['p50']} !< {baseline['p50']}"
            assert session["p99"] < baseline["p99"], \
                f"{where}: p99 {session['p99']} !< {baseline['p99']}"
            assert session["msgs_per_program"] <= \
                baseline["msgs_per_program"] + 1e-9, \
                f"{where}: msgs {session['msgs_per_program']} > " \
                f"{baseline['msgs_per_program']}"
    # at least one lease cell actually served lease reads
    if any(p in LEASE_PROTOCOLS for p in protocols) and leases:
        served = sum(o["staleness"]["count"] for o in outcomes
                     if o["lease"] > 0 and o["staleness"]["count"])
        assert served > 0, "no lease-served reads anywhere in the sweep"


def test_benchmark_client(benchmark):
    outcomes = run_once(benchmark, run)
    check(outcomes)


if __name__ == "__main__":
    bench_main("bench_client", run, check, smoke=SMOKE)
