"""E11 (extension) — rule R2's parenthetical: retry reads elsewhere.

R2: "(If q does not respond, then the physical read can be retried at
another processor or the logical read can be aborted.)"  The protocol
supports both; this ablation quantifies the trade-off when the nearest
copy's holder has just crashed and the view has not caught up yet:

* retry OFF — the read aborts, the client re-runs the transaction
  after the view converges;
* retry ON — the read falls through to the next-nearest copy and
  usually succeeds on the first attempt.
"""

from __future__ import annotations

import math

from repro.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.net.latency import DistanceLatency, ring_distances
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

TRIALS = 8
SMOKE = {"trials": 2}


def run_flavor(read_retry: bool, trials: int = TRIALS) -> dict:
    # Slow probing (pi=60) models a long detection window; a tight
    # access timeout (6 delta; there is no lock contention here) makes
    # the no-response verdict arrive well before the view catches up —
    # the regime where R2's retry-or-abort choice actually matters.
    config = ProtocolConfig(delta=1.0, pi=60.0, read_retry=read_retry,
                            access_timeout_deltas=6.0,
                            lock_timeout_deltas=4.0)
    latency = DistanceLatency(ring_distances([1, 2, 3, 4, 5]),
                              default=1.0, jitter=0.0)
    cluster = Cluster(processors=5, seed=23, latency=latency, config=config)
    cluster.place("x", holders=[2, 3, 4], initial="value")
    cluster.start()

    first_attempt_ok = 0
    eventually_ok = 0
    total_read_time = 0.0
    for trial in range(trials):
        # p2 is p1's nearest holder of x; crash it right before a read,
        # inside the detection window (the view still lists it).
        crashed = cluster.sim.now + 10.0
        (recover,) = apply_schedule(cluster.injector, [
            FaultAction(crashed, "crash", (2,), math.inf)])
        cluster.run(until=crashed + 0.5)

        def read_body(txn):
            value = yield from txn.read("x")
            return value

        start = cluster.sim.now
        once = cluster.submit(1, read_body)
        cluster.sim.run(until=once)
        if once.value[0]:
            first_attempt_ok += 1
            eventually_ok += 1
        else:
            retried = cluster.submit(1, read_body, retries=10, backoff=6.0)
            cluster.sim.run(until=retried)
            if retried.value[0]:
                eventually_ok += 1
        total_read_time += cluster.sim.now - start
        # heal for the next trial
        recovered = cluster.sim.now + 5.0
        cluster.injector.at(recovered, *recover)
        cluster.run(until=recovered + cluster.config.liveness_bound + 5)

    return {
        "first_attempt_ok": first_attempt_ok,
        "eventually_ok": eventually_ok,
        "mean_read_completion": total_read_time / trials,
    }


def run(trials: int = TRIALS) -> dict:
    # in-process: trials crash and heal a live cluster between reads.
    outcomes = {flag: run_flavor(flag, trials=trials)
                for flag in (False, True)}
    rows = [
        ["abort (retry off)", outcomes[False]["first_attempt_ok"],
         outcomes[False]["eventually_ok"],
         outcomes[False]["mean_read_completion"]],
        ["retry next copy (R2)", outcomes[True]["first_attempt_ok"],
         outcomes[True]["eventually_ok"],
         outcomes[True]["mean_read_completion"]],
    ]
    report(render_table(
        ["policy", f"1st-attempt ok (of {trials})",
         f"eventually ok (of {trials})", "mean read completion time"],
        rows,
        title="E11 Reads racing a crash of the nearest copy holder "
              "(view not yet updated)",
    ))
    emit_metrics("read_retry", {
        f"{'retry' if flag else 'abort'}.{metric}": outcome[metric]
        for flag, outcome in outcomes.items()
        for metric in ("first_attempt_ok", "eventually_ok",
                       "mean_read_completion")
    })
    return outcomes


def test_benchmark_read_retry(benchmark):
    outcomes = run_once(benchmark, run)
    off, on = outcomes[False], outcomes[True]
    # Retrying at the next copy rescues first attempts...
    assert on["first_attempt_ok"] > off["first_attempt_ok"]
    # ...and completes reads sooner on average.
    assert on["mean_read_completion"] < off["mean_read_completion"]
    # Both policies eventually serve every read (fault tolerance).
    assert on["eventually_ok"] == TRIALS
    assert off["eventually_ok"] == TRIALS


if __name__ == "__main__":
    bench_main("bench_read_retry", run, smoke=SMOKE)
