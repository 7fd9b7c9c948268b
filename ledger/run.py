"""Run workloads rep by rep and fold the reps into named metrics.

The parent process never imports the simulator: every rep, traced rep
and verify pass is a fresh child interpreter (:mod:`ledger.rep`), run
one at a time, so no rep sees another's heap and ``programs_per_s``
cannot depend on rep order.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from . import OUT, ROOT, SRC, contract
from .layers import LAYERS, self_shares

CHILD_TIMEOUT_S = 170
#: units measured on the host clock (seconds are reference-host seconds,
#: see :func:`reference_seconds`); every other unit is counted on the
#: simulated clock and repeats exactly for a seed
HOST_UNITS = frozenset({"s", "1/s", "MB", "share", "x"})

PREAMBLE = """\
5-node clusters, fixed one-way latency delta = 1 tick, probe period pi = 10
ticks, so Delta = pi + 8*delta = 18 ticks.  Load is generated inside the
simulated process, on the simulated clock: the open-loop generator is never
late, so no lateness is reported.  retries = 0: one program is one attempt.
Reps run one at a time, each in a fresh interpreter after a warm-up run and
gc.collect().  "attempted" and "failed" in the result line count reps."""


class LedgerError(Exception):
    """The benchmark could not produce a result."""


def child(mode: str, workload: str, seed: int, scale: float) -> dict:
    """Run ``ledger.rep`` in a fresh interpreter and parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "ledger.rep", mode, workload, str(seed),
         repr(scale)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise LedgerError(
            f"{mode} of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0, reps: int = 0) -> dict:
    """Measure ``name`` for ``seconds`` (or exactly ``reps`` reps).

    Each round is one untraced rep plus, when ``traced``, one rep under
    cProfile.  Rounds repeat until the next one would pass the deadline;
    at least two runs of the spec are made so determinism is checked.
    """
    verify = child("verify", name, seed, scale)
    plain, profiled = [], []
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        started = time.monotonic()
        plain.append(child("rep", name, seed, scale))
        if traced:
            profiled.append(child("traced", name, seed, scale))
        longest = max(longest, time.monotonic() - started)
        if reps:
            if len(plain) >= reps:
                break
        elif (len(plain) + len(profiled) >= 2
              and time.monotonic() + longest > deadline):
            break

    first = plain[0]
    gates = [f"verify: {reason}" for reason in verify["gates"]]
    failed = 0
    for rep in plain + profiled:
        reasons = list(rep["gates"])
        if rep["fingerprint"] != first["fingerprint"]:
            reasons.append("reps of one seed produced different fingerprints")
        failed += bool(reasons)
        gates.extend(reason for reason in reasons if reason not in gates)

    samples = {
        "setup_s": [rep["setup_s"] * rep["host_speed"] for rep in plain],
        "programs_per_s": [rep["issued"] / reference_seconds(rep)
                           for rep in plain],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
    }
    end_to_end = {metric: statistics.median(values)
                  for metric, values in samples.items()}
    end_to_end.update(first["end_to_end"])
    record = {
        "workload": name, "seed": seed, "scale": scale,
        "reps": len(plain), "traced_reps": len(profiled),
        "programs": first["programs"], "issued": first["issued"],
        "attempted": len(plain) + len(profiled), "failed": failed,
        "gates": gates,
        "fingerprint": first["fingerprint"],
        "end_to_end": end_to_end, "samples": samples,
        "host_speed": statistics.median(
            rep["host_speed"] for rep in plain),
        "raw": [{key: rep[key] for key in
                 ("wall_s", "host_speed", "slices_s", "calibration_s",
                  "setup_samples", "peak_rss_mb")}
                for rep in plain],
    }
    if traced:
        record["per_layer"] = per_layer(plain, profiled)
        OUT.mkdir(exist_ok=True)
        trace = {key: profiled[-1][key]
                 for key in ("layers", "spans", "hottest")}
        trace.update(workload=name, seed=seed, scale=scale)
        (OUT / f"trace_{name}.json").write_text(json.dumps(trace, indent=1))
    return record


def reference_seconds(rep: dict) -> float:
    """A rep's time inside ``Cluster.run`` in reference-host seconds.

    The sandbox's speed drifts by tens of percent within a minute; each
    rep's wall time is therefore scaled by how fast the host ran the
    calibration loops interleaved with that rep (``host_speed`` = 1 on
    the reference host, below 1 on a slower or busier one).
    """
    return rep["wall_s"] * rep["host_speed"]


def per_layer(plain: list, profiled: list) -> dict:
    """Per-layer metrics: exact counters plus the profile's attribution."""
    first = profiled[0]
    programs = first["programs"]
    metrics = dict(first["per_layer"])
    metrics["sim.events_per_s"] = statistics.median(
        rep["events"] / reference_seconds(rep) for rep in plain)
    # per-layer medians over the traced reps, renormalised to sum to 1
    layers = {
        name: {"self_s": statistics.median(
            rep["layers"][name]["self_s"] for rep in profiled)}
        for name in LAYERS
    }
    for name, share in self_shares(layers).items():
        metrics[f"{name}.self_share"] = share
        metrics[f"{name}.calls_per_commit"] = (
            first["layers"][name]["calls"] / programs)
    metrics["total.calls_per_commit"] = sum(
        entry["calls"] for entry in first["layers"].values()) / programs
    metrics["trace.overhead_x"] = (
        statistics.median(reference_seconds(rep) for rep in profiled)
        / statistics.median(reference_seconds(rep) for rep in plain))
    metrics["trace.host_speed_x"] = statistics.median(
        rep["host_speed"] for rep in plain + profiled)
    return metrics


def declared(section: str) -> dict:
    """``{name: declaration}`` of one metric section of the contract."""
    return {entry["name"]: entry for entry in contract()[section]}


def result_line(record: dict, section: str) -> dict:
    """The driver's result object for one run of one workload."""
    declarations = declared(section)
    measured = record[section]
    if set(measured) != set(declarations):
        raise LedgerError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(measured) ^ set(declarations))}")
    return {
        "correct": not record["gates"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": measured[name],
                           "unit": declarations[name]["unit"]}
                    for name in declarations},
    }


def print_record(record: dict) -> None:
    """Every metric of one workload by name, with unit, clock and bound."""
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{record['reps']} reps + {record['traced_reps']} traced  "
          f"{record['programs']} of {record['issued']} programs committed "
          f"per rep  {record['failed']} reps failed ==")
    speed = record["host_speed"]
    rate = record["end_to_end"]["programs_per_s"]
    print(f"  host_speed {speed:.3f} of the reference host: "
          f"{rate * speed:.5g} programs and "
          f"{rate * speed * record['end_to_end']['commit_frac']:.5g} commits "
          "per raw host second")
    for section in ("end_to_end", "per_layer"):
        if section not in record:
            continue
        print(f"  {section}")
        for name, entry in declared(section).items():
            clock = "host" if entry["unit"] in HOST_UNITS else "sim"
            note = ""
            if "bound" in entry:
                note = f"  bound {entry['bound']:.0%}"
            if name in record["samples"]:
                values = record["samples"][name]
                note += f"  min..max {min(values):.4g}..{max(values):.4g}"
            if name in ("lat_mean_ticks", "lat_p99_ticks"):
                note += f"  n={record['programs']}"
            print(f"    {name:34s} {record[section][name]:12.5g} "
                  f"{entry['unit']:9s} {clock:4s} {entry['better']:6s}{note}")
    for reason in record["gates"]:
        print(f"  INCORRECT: {reason}")


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model or platform.processor(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"


def run_all(seed: int, seconds: float, traced: bool = True,
            scale: float = 1.0, reps: int = 0) -> dict:
    """Run every workload of the contract; returns the run document.

    End-to-end metrics come from an untraced pass of ``seconds``; when
    ``traced``, a second pass of the same length adds the per-layer
    metrics, and both passes must agree on the fingerprint.
    """
    print(PREAMBLE)
    records = []
    for workload in contract()["workloads"]:
        name = workload["name"]
        record = run_workload(name, seed, seconds, traced=False,
                              scale=scale, reps=reps)
        if traced:
            layered = run_workload(name, seed, seconds, traced=True,
                                   scale=scale, reps=reps)
            if layered["fingerprint"] != record["fingerprint"]:
                layered["gates"].append(
                    "the traced pass produced another fingerprint")
            record["gates"] += [reason for reason in layered["gates"]
                                if reason not in record["gates"]]
            for key in ("attempted", "failed", "traced_reps"):
                record[key] += layered[key]
            record["per_layer"] = layered["per_layer"]
        print_record(record)
        records.append(record)
    return {"commit": commit_id(), "host": host_info(), "seed": seed,
            "seconds": seconds, "scale": scale, "workloads": records}


def write_run(document: dict) -> str:
    OUT.mkdir(exist_ok=True)
    smoke = "" if document["scale"] == 1.0 else "-smoke"
    path = OUT / f"run_{document['commit']}{smoke}.json"
    path.write_text(json.dumps(document, indent=1))
    return str(path)
