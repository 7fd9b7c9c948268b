"""One rep, in a fresh interpreter: ``python -m ledger.rep``.

The parent (:mod:`ledger.run`) starts one of these per rep, one at a
time, and reads a single JSON object from its standard output.  A rep
warms up with a short run of the same spec, samples set-up time on
zero-length runs, collects garbage, then runs the measured experiment —
under cProfile when traced.  Nothing under ``src/`` is edited: the two
hooks below wrap public entry points from outside.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import pstats
import resource
import statistics
import sys
import time
from dataclasses import replace

from repro.cluster import Cluster
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import run_experiment

from . import layers, metrics, workloads

WARMUP_TICKS = 40.0
SETUP_SAMPLES = 9
CALIBRATION_ROUNDS = 60_000
#: host seconds one calibration loop takes on the reference host (this
#: repository's 2-core 2.1 GHz Xeon sandbox when quiet): a host on which
#: the loop takes exactly this long reads host_speed = 1
CALIBRATION_REF_S = 0.036
SLICES = 8
#: without faults, only lock timeouts may abort a program
FAILURE_FREE_COMMIT_FRAC = 0.98


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Host seconds for a fixed pure-Python loop.

    Heap churn, generator resumes and dict traffic — the simulator's
    instruction mix, with none of its code, so a change under ``src/``
    cannot move it.  Timed right before and after the measured run, it
    says how fast the host was running at that moment.
    """
    def ticker():
        tick = 0
        while True:
            tick += 1
            yield tick

    heap: list = []
    seen: dict = {}
    resume = ticker().__next__
    start = time.perf_counter()
    for index in range(rounds):
        heapq.heappush(heap, ((index * 7919) % 1000, index))
        if len(heap) > 64:
            heapq.heappop(heap)
        seen[index & 1023] = resume()
    return time.perf_counter() - start


class Hooks:
    """Counts generated programs and slices the measured ``Cluster.run``.

    Set-up ends where ``Cluster.run`` begins.  While ``measuring``, the
    run is advanced in ``SLICES`` equal steps of simulated time (the
    kernel resumes a run exactly where the last horizon left it), each
    step timed on its own — under the profiler when there is one — with
    a calibration loop before, between and after them.
    """

    def __init__(self):
        self.issued = 0
        self.run_entered = 0.0
        self.measuring = False
        self.profiler = None
        self.slices_s: list = []
        self.calibration_s: list = []
        hooks = self
        next_program = WorkloadGenerator.next_program
        cluster_run = Cluster.run

        def counted_next_program(generator):
            hooks.issued += 1
            return next_program(generator)

        def sliced_run(cluster, until):
            hooks.run_entered = time.perf_counter()
            if not hooks.measuring:
                return cluster_run(cluster, until)
            begin = cluster.sim.now
            for index in range(1, SLICES + 1):
                hooks.calibration_s.append(calibrate())
                horizon = (until if index == SLICES
                           else begin + (until - begin) * index / SLICES)
                start = time.perf_counter()
                if hooks.profiler is not None:
                    hooks.profiler.enable()
                try:
                    cluster_run(cluster, horizon)
                finally:
                    if hooks.profiler is not None:
                        hooks.profiler.disable()
                hooks.slices_s.append(time.perf_counter() - start)
            hooks.calibration_s.append(calibrate())

        WorkloadGenerator.next_program = counted_next_program
        Cluster.run = sliced_run

    def run(self, spec):
        """Run ``spec``; returns ``(result, host seconds of set-up)``."""
        start = time.perf_counter()
        result = run_experiment(spec)
        return result, self.run_entered - start


def fingerprint_digest(result) -> str:
    canonical = json.dumps(result.fingerprint(), sort_keys=True,
                           default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def measure(name: str, seed: int, scale: float, traced: bool) -> dict:
    """The measured rep of workload ``name``."""
    spec = workloads.build(name, seed, scale)
    hooks = Hooks()
    hooks.run(replace(spec, duration=WARMUP_TICKS, grace=0.0))
    idle = replace(spec, duration=0.0, grace=0.0)
    setup = [hooks.run(idle)[1] for _ in range(SETUP_SAMPLES - 1)]
    calibrate()
    gc.collect()

    hooks.issued = 0
    hooks.measuring = True
    if traced:
        hooks.profiler = cProfile.Profile()
    result, seconds = hooks.run(spec)
    setup.append(seconds)
    instants = (workloads.fault_instants(spec.failures.actions)
                if spec.failures is not None else [])
    rep = metrics.sim_metrics(result, hooks.issued, instants)
    rep.update(
        fingerprint=fingerprint_digest(result),
        wall_s=sum(hooks.slices_s),
        host_speed=CALIBRATION_REF_S / statistics.mean(hooks.calibration_s),
        slices_s=hooks.slices_s,
        events=result.events_dispatched,
        setup_s=statistics.median(setup),
        setup_samples=setup,
        calibration_s=hooks.calibration_s,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        gates=gate_failures(spec, rep),
    )
    if traced:
        stats = pstats.Stats(hooks.profiler).stats
        rep["layers"] = layers.attribute(stats)
        rep["spans"] = layers.spans(stats)
        rep["hottest"] = [
            {"function": f"{file}:{line}({function})", "self_s": self_s,
             "calls": calls}
            for (file, line, function), (_, calls, self_s, _, _)
            in sorted(stats.items(), key=lambda item: -item[1][2])[:25]
        ]
    return rep


def gate_failures(spec, rep: dict) -> list:
    """Reasons this rep's outputs are wrong (empty when they are right)."""
    reasons = []
    if rep["per_layer"]["audit.violations"]:
        reasons.append("the auditor reported violations")
    if spec.failures is None:
        if rep["end_to_end"]["commit_frac"] < FAILURE_FREE_COMMIT_FRAC:
            reasons.append(
                f"only {rep['end_to_end']['commit_frac']:.3f} of a "
                "failure-free workload's programs committed")
        if rep["per_layer"]["core.vp_created"]:
            reasons.append("a failure-free workload created a partition")
    backlog = rep["per_layer"]["client.backlog_at_end"]
    if spec.open_loop and backlog > 1.5 * rep["backlog_mid"] + 1.0:
        reasons.append(
            f"open-loop backlog grows: {backlog:.1f} in flight over the "
            f"last quarter vs {rep['backlog_mid']:.1f} over the second")
    return reasons


def verify(name: str, seed: int) -> dict:
    """Run the small twin of ``name`` under the exact 1SR checker."""
    result = run_experiment(workloads.twin(name, seed))
    reasons = []
    if result.one_copy_ok is not True:
        verdict = ("inconclusive" if result.one_copy_ok is None
                   else "violated")
        reasons.append(f"one-copy serializability {verdict}")
    if result.audit_violations:
        reasons.append(f"{len(result.audit_violations)} auditor violations")
    if not result.committed:
        reasons.append("the twin committed nothing")
    return {"committed": result.committed, "gates": reasons}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.rep")
    parser.add_argument("mode", choices=("rep", "traced", "verify"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("scale", type=float)
    args = parser.parse_args(argv)
    if args.mode == "verify":
        report = verify(args.workload, args.seed)
    else:
        report = measure(args.workload, args.seed, args.scale,
                         traced=args.mode == "traced")
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
