"""E5 — claim C3: view convergence within Δ = π + 8δ.

§5 proves that once a clique stabilizes (no further failures or
recoveries affecting it), every member commits to the partition with
the highest identifier within Δ = π + 8δ.  This bench heals a
partitioned cluster, measures when the last processor joins the final
common partition, and sweeps π and δ to show the measured convergence
tracks (and respects) the bound.
"""

from __future__ import annotations

from repro.analysis.metrics import convergence_time
from repro.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.net.latency import FixedLatency, UniformLatency
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

SMOKE = {"deltas": (1.0,), "pi_factors": (3,), "jitters": (False,),
         "seeds": (1,)}


def measure_convergence(delta: float, pi: float, seed: int,
                        jittered: bool) -> float:
    """Time from heal to the last join of the final common partition."""
    latency = (UniformLatency(0.4 * delta, delta) if jittered
               else FixedLatency(delta))
    config = ProtocolConfig(delta=delta, pi=pi)
    cluster = Cluster(processors=5, seed=seed, latency=latency,
                      config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    settle = 5.0 + 2 * config.liveness_bound
    healed = settle + 1.0
    apply_schedule(cluster.injector, [FaultAction(
        5.0, "partition", ((1, 2), (3, 4, 5)), healed - 5.0)])
    cluster.run(until=healed + 3 * config.liveness_bound)

    final_ids = {cluster.protocol(p).current_partition for p in cluster.pids}
    assert len(final_ids) == 1 and None not in final_ids, (
        f"cluster did not reconverge: {final_ids}"
    )
    return convergence_time(cluster.history, after=healed)


def run(deltas=(0.5, 1.0, 2.0), pi_factors=(3, 10, 20),
        jitters=(False, True), seeds=(1, 2, 3)) -> dict:
    # in-process: each point stages a partition/heal against a live
    # cluster.
    rows = []
    outcomes: dict = {}
    for delta in deltas:
        for factor in pi_factors:
            pi = factor * delta
            bound = pi + 8 * delta
            for jittered in jitters:
                measured = max(
                    measure_convergence(delta, pi, seed, jittered)
                    for seed in seeds
                )
                outcomes[(delta, pi, jittered)] = (measured, bound)
                rows.append([
                    delta, pi, "uniform" if jittered else "fixed",
                    measured, bound, measured <= bound,
                ])
    report(render_table(
        ["delta", "pi", "latency", f"measured worst ({len(seeds)} seeds)",
         "bound pi+8*delta", "within"],
        rows,
        title="E5  View convergence after heal vs the liveness bound "
              "Delta = pi + 8*delta (5 processors, 2|3 partition healed)",
    ))
    emit_metrics("liveness", {
        f"d{delta}.pi{pi}.{'uniform' if jittered else 'fixed'}"
        f".{metric}": value
        for (delta, pi, jittered), (measured, bound) in outcomes.items()
        for metric, value in (("measured", measured), ("bound", bound))
    })
    return outcomes


def test_benchmark_liveness(benchmark):
    outcomes = run_once(benchmark, run)
    for (delta, pi, _jittered), (measured, bound) in outcomes.items():
        assert measured <= bound, (
            f"convergence {measured} exceeded Delta={bound} "
            f"(delta={delta}, pi={pi})"
        )
        # sanity: convergence takes real time (probing is periodic)
        assert measured > 0


if __name__ == "__main__":
    bench_main("bench_liveness", run, smoke=SMOKE)
