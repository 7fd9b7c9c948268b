"""E8 — claim C6: bounded staleness of reads, as a function of π.

§4 observes that views can lag the real topology, so a processor slow
to detect a partition can keep serving reads of values that the other
side has since overwritten — never violating 1SR (the reader simply
serializes before the writer), but stale in real time.  Probing bounds
the window: within about π + 8δ the lagging processor departs its old
partition and the reads stop.

The bench partitions a cluster so that p4 (minority side) still
believes it is in the full partition, has the majority side commit a
write as soon as its new partition forms, and measures how long p4
keeps serving the old value.  Sweeping π shows the window tracking the
probe period — the paper's "probing bounds the staleness" remark made
quantitative.
"""

from __future__ import annotations

import math

from repro.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

SMOKE = {"pis": (16.0,)}


def staleness_window(pi: float, seed: int = 2) -> dict:
    # Failure detectors are not synchronized: the minority probes half a
    # period out of phase with the majority, and the partition lands
    # right after a minority probe round completes — so the minority is
    # "slow to detect the occurrence of a failure" (§4) by about pi/2
    # while the majority notices at its very next round.
    config = ProtocolConfig(
        delta=1.0, pi=pi,
        probe_phase=lambda pid: 0.0 if pid <= 3 else 0.5 * pi,
    )
    cluster = Cluster(processors=5, seed=seed, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial="old")
    cluster.start()
    split = 0.5 * pi + 2 * config.delta + 0.5
    apply_schedule(cluster.injector, [
        FaultAction(split, "partition", ((1, 2, 3), (4, 5)), math.inf)])

    outcome: dict = {"write_time": None, "last_stale_read": None,
                     "stale_reads": 0}

    def majority_writer():
        # Write as soon as the majority side has re-formed.
        protocol = cluster.protocol(1)
        while True:
            yield cluster.sim.timeout(0.5)
            if (protocol.assigned and protocol.view == frozenset({1, 2, 3})
                    and protocol.available("x", write=True)
                    and "x" not in protocol.state.locked):
                break
        committed, _ = yield from cluster.tm(1).run(_write_body)
        if committed:
            outcome["write_time"] = cluster.sim.now

    def _write_body(txn):
        yield from txn.write("x", "new")
        return None

    def minority_poller():
        # p4 keeps issuing single reads; record stale successes.
        tm = cluster.tm(4)
        while cluster.sim.now < split + 4 * config.liveness_bound:
            yield cluster.sim.timeout(1.0)

            def read_body(txn):
                value = yield from txn.read("x")
                return value

            committed, value = yield from tm.run(read_body)
            if (committed and value == "old"
                    and outcome["write_time"] is not None):
                outcome["stale_reads"] += 1
                outcome["last_stale_read"] = cluster.sim.now

    cluster.sim.process(majority_writer(), name="majority-writer")
    cluster.sim.process(minority_poller(), name="minority-poller")
    cluster.run(until=split + 5 * config.liveness_bound)
    assert outcome["write_time"] is not None, "majority write never landed"
    window = (outcome["last_stale_read"] - outcome["write_time"]
              if outcome["last_stale_read"] is not None else 0.0)
    assert cluster.check_one_copy_serializable(), (
        "stale reads must still be one-copy serializable"
    )
    return {"pi": pi, "window": window,
            "stale_reads": outcome["stale_reads"],
            "bound": config.liveness_bound}


def run(pis=(16.0, 32.0, 48.0, 64.0)) -> list:
    # in-process: each point runs custom writer/poller processes inside
    # a live cluster.
    rows = []
    outcomes = []
    for pi in pis:
        result = staleness_window(pi)
        outcomes.append(result)
        rows.append([pi, result["stale_reads"], result["window"],
                     result["bound"]])
    report(render_table(
        ["pi", "stale reads served", "staleness window",
         "detection bound pi+8*delta"],
        rows,
        title="E8  How long the lagging minority (p4) keeps serving the "
              "old value after the majority commits a new one",
    ))
    emit_metrics("staleness", {
        f"pi{result['pi']}.{metric}": result[metric]
        for result in outcomes
        for metric in ("stale_reads", "window", "bound")
    })
    return outcomes


def test_benchmark_staleness(benchmark):
    outcomes = run_once(benchmark, run)
    windows = [r["window"] for r in outcomes]
    # Frequent probing keeps data fresh: at the smallest period the
    # minority departs before the majority even finishes its write.
    assert outcomes[0]["stale_reads"] == 0
    # Staleness is real for lazy probing (the paper: not eliminable
    # under the read-one rule)...
    assert all(r["stale_reads"] > 0 for r in outcomes[1:])
    # ...but bounded by the detection bound in every configuration...
    for r in outcomes:
        assert r["window"] <= r["bound"], (
            f"staleness {r['window']} exceeded bound {r['bound']} "
            f"at pi={r['pi']}"
        )
    # ...and the window grows with the probe period.
    assert windows[1] < windows[2] < windows[3]


if __name__ == "__main__":
    bench_main("bench_staleness", run, smoke=SMOKE)
