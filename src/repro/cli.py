"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro run --protocol virtual-partitions --processors 5 \\
        --read-fraction 0.95 --duration 300 --fault "partition:1,2,3|4,5@100+100"

    python -m repro compare --protocols virtual-partitions,quorum,rowa \\
        --read-fraction 0.9

    python -m repro scenario example1 --flavor both

    python -m repro trace example2 --out trace.jsonl --analyze

    python -m repro metrics --protocol virtual-partitions --duration 200

    python -m repro sweep --axis seed --values 1,2,3,4,5,6,7,8 --workers 4
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence

from .client.cache import POLICIES as CACHE_POLICIES
from .commit import COMMIT_BACKENDS
from .net.nemesis import KINDS, FaultAction
from .protocols import PROTOCOLS
from .shard import POLICIES as PLACEMENT_POLICIES
from .shard import ReshardAction
from .workload import ExperimentSpec, ScheduledNemesis, run_experiment
from .workload.hunt import HuntConfig, hunt, hunt_base, replay_artifact
from .workload.runner import with_paths
from .workload.sweep import sweep, sweep_protocols
from .workload.tables import render_table


class Flag(NamedTuple):
    """One experiment knob on the command line: the flag, and the dotted
    :class:`ExperimentSpec` path its value is stored at.  ``choices``
    is the registry that validates the value, never a retyped list."""

    flag: str
    path: str
    #: value type; ``bool`` makes the flag a ``store_true`` switch
    type: Any
    default: Any
    help: Optional[str] = None
    choices: Optional[Iterable[str]] = None
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


#: every experiment knob the CLI exposes — a new one is one more row
FLAGS = (
    Flag("--protocol", "protocol", str, "virtual-partitions",
         choices=PROTOCOLS),
    Flag("--processors", "processors", int, 5),
    Flag("--objects", "objects", int, 10),
    Flag("--copies", "copies_per_object", int, None,
         "copies per object (default: full replication)"),
    Flag("--placement", "placement", str, None,
         "shard objects with this placement policy (default: legacy "
         "contiguous ring)", choices=PLACEMENT_POLICIES),
    Flag("--directory", "directory", str, None,
         "routing directory kind (default: local full-map)",
         choices=("local", "cached")),
    Flag("--seed", "seed", int, 0),
    Flag("--duration", "duration", float, 300.0),
    Flag("--read-fraction", "workload.read_fraction", float, 0.9),
    Flag("--ops-per-txn", "workload.ops_per_txn", int, 2),
    Flag("--interarrival", "workload.mean_interarrival", float, 10.0),
    Flag("--retries", "retries", int, 1),
    Flag("--delta", "config.delta", float, 1.0,
         "message delay bound (the paper's delta)"),
    Flag("--pi", "config.pi", float, 10.0,
         "probe period (the paper's pi)"),
    Flag("--cc", "config.cc", str, "2pl", choices=("2pl", "tso")),
    Flag("--commit-backend", "config.commit_backend", str, "2pc",
         "atomic-commit backend (default: blocking 2PC)",
         choices=COMMIT_BACKENDS),
    Flag("--check", "check", bool, False,
         "run the 1SR checker afterwards"),
    Flag("--open-loop", "open_loop", bool, False,
         "open-loop load: arrivals fire on the Poisson clock regardless "
         "of service time, so latency includes queueing (default: closed "
         "loop)"),
    Flag("--cache", "session.cache_capacity", int, 0,
         "per-client LRU cache of N entries (default: 0 = no cache)",
         metavar="N"),
    Flag("--cache-policy", "session.cache_policy", str, "write-through",
         "client cache write policy (write-back needs --cache > 0)",
         choices=CACHE_POLICIES),
    Flag("--lease", "session.lease_duration", float, 0.0,
         "lease-based local reads of duration L (must be <= pi; "
         "default: 0 = no leases)", metavar="L"),
)


def _flags(*dests: str) -> List[Flag]:
    return [flag for flag in FLAGS if flag.dest in dests]


def _add_flags(parser, flags: Sequence[Flag] = FLAGS) -> None:
    for flag in flags:
        if flag.type is bool:
            parser.add_argument(flag.flag, action="store_true",
                                help=flag.help)
        else:
            parser.add_argument(
                flag.flag, type=flag.type, default=flag.default,
                choices=flag.choices and list(flag.choices),
                metavar=flag.metavar, help=flag.help)


def _at(obj, path: str):
    """Read a dotted path; None as soon as a nested spec is absent."""
    for name in path.split("."):
        obj = None if obj is None else getattr(obj, name)
    return obj


def _apply_flags(args, base: ExperimentSpec) -> ExperimentSpec:
    """``base`` with every flag the command carries laid over it; a
    flag left at None keeps the spec's own default."""
    values = {flag.path: getattr(args, flag.dest) for flag in FLAGS
              if getattr(args, flag.dest, None) is not None}
    if not (values.get("session.cache_capacity")
            or values.get("session.lease_duration")):
        # client tier off: no SessionSpec at all (the default path)
        values = {path: value for path, value in values.items()
                  if not path.startswith("session.")}
    return with_paths(base, values)


def _number(token: str):
    """A fault argument: an int when it is integral, else a float."""
    value = float(token)
    return int(value) if value.is_integer() else value


def _parse_fault(text: str) -> FaultAction:
    """``"KIND:ARGS@TIME[+HOLD]"`` → a :class:`FaultAction`; no ``+HOLD``
    is a permanent fault.  A partition's ARGS are ``|``-separated
    blocks of pids, any other kind's a comma-separated list of
    numbers: ``partition:1,2,3|4,5@50+30``, ``crash:4@30+20``,
    ``cut:1,2@10``, ``surge:1,2,4.0@10+5``."""
    try:
        kind, rest = text.split(":", 1)
        args_text, when = rest.rsplit("@", 1)
        time_text, _, hold_text = when.partition("+")
        if kind == "partition":
            args: tuple = tuple(
                tuple(int(p) for p in block.split(","))
                for block in args_text.split("|"))
        else:
            args = tuple(_number(a) for a in args_text.split(","))
        fault = FaultAction(float(time_text), kind, args,
                            float(hold_text) if hold_text else math.inf)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad fault {text!r}; expected like 'partition:1,2,3|4,5@50+30'"
        ) from exc
    if kind not in KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown fault kind {kind!r} in {text!r}; one of {KINDS}")
    return fault


def _experiment_flags(parser, flags: Sequence[Flag] = FLAGS) -> None:
    """The knob table plus the fault schedule."""
    _add_flags(parser, flags)
    parser.add_argument("--fault", type=_parse_fault, action="append",
                        metavar="KIND:ARGS@TIME[+HOLD]",
                        help="e.g. 'partition:1,2,3|4,5@50+30' or "
                             "'crash:4@30+20' (repeatable)")


def _spec_from(args) -> ExperimentSpec:
    failures = ScheduledNemesis(tuple(args.fault or ()))
    return replace(_apply_flags(args, ExperimentSpec()), failures=failures)


def _result_rows(name: str, result) -> list:
    return [
        name, result.committed, result.aborted,
        f"{result.commit_rate:.2f}",
        f"{result.reads_per_logical_read:.2f}",
        f"{result.writes_per_logical_write:.2f}",
        f"{result.accesses_per_operation:.2f}",
        result.network["sent"],
        f"{result.latency_p50:.1f}",
        f"{result.latency_p99:.1f}",
        "-" if result.one_copy_ok is None else result.one_copy_ok,
    ]


_HEADERS = ["protocol", "committed", "aborted", "commit rate",
            "phys/read", "phys/write", "phys/op", "messages",
            "p50 lat", "p99 lat", "1SR"]


def cmd_run(args) -> int:
    result = run_experiment(_spec_from(args))
    print(render_table(_HEADERS, [_result_rows(args.protocol, result)],
                       title=f"experiment (seed={args.seed}, "
                             f"duration={args.duration})"))
    return 0


def cmd_compare(args) -> int:
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    results = sweep_protocols(_spec_from(args), protocols)
    rows = [_result_rows(name, results[name]) for name in protocols]
    print(render_table(_HEADERS, rows,
                       title=f"comparison (seed={args.seed}, paired "
                             "workloads)"))
    return 0


def _scenario_runner(name: str, flavor: str):
    from .workload import scenarios

    return getattr(scenarios, f"run_{name}_{flavor}")


def cmd_scenario(args) -> int:
    flavors = ["naive", "vp"] if args.flavor == "both" else [args.flavor]
    rows = []
    for flavor in flavors:
        outcome = _scenario_runner(args.name, flavor)(seed=args.seed)
        rows.append([
            flavor, len(outcome.committed), len(outcome.aborted),
            outcome.cp_serializable, outcome.one_copy.ok,
            outcome.one_copy.violation or "-",
        ])
    print(render_table(
        ["protocol", "committed", "aborted", "CP-serializable",
         "one-copy SR", "1SR cycle"],
        rows, title=f"paper scenario {args.name}",
    ))
    return 0


def cmd_trace(args) -> int:
    from .obs.analyze import TraceAnalyzer
    from .obs.export import write_jsonl

    outcome = _scenario_runner(args.name, args.flavor)(seed=args.seed,
                                                       trace=True)
    events = outcome.cluster.tracer.events
    count = write_jsonl(events, args.out)
    print(f"wrote {count} events to {args.out}")
    if args.analyze:
        print(TraceAnalyzer(events).render())
    return 0


def cmd_metrics(args) -> int:
    import json

    result = run_experiment(_spec_from(args))
    print(json.dumps(result.registry.snapshot(), indent=2, sort_keys=True))
    return 0


def _parse_axis_value(token: str):
    """A sweep value from the command line: int, then float, then str."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            continue
    return token


def cmd_sweep(args) -> int:
    base = _spec_from(args)
    values = [_parse_axis_value(v.strip())
              for v in args.values.split(",") if v.strip()]
    if not values:
        raise SystemExit("no sweep values supplied")
    wall_start = time.perf_counter()
    results = sweep(base, args.axis, values, workers=args.workers)
    wall = time.perf_counter() - wall_start
    rows = []
    total_events = 0
    for value, result in results:
        total_events += result.events_dispatched
        rows.append(_result_rows(str(value), result)
                    + [result.events_dispatched])
    print(render_table(
        [args.axis] + _HEADERS[1:] + ["events"], rows,
        title=f"sweep over {args.axis} "
              f"({len(values)} runs, workers={args.workers})",
    ))
    rate = total_events / wall if wall else 0.0
    print(f"{len(values)} runs, {total_events} simulated events "
          f"in {wall:.2f}s wall ({rate:,.0f} events/sec aggregate)")
    return 0


def cmd_reshard(args) -> int:
    try:
        action = ReshardAction.onto_spares(
            args.processors, args.spares, args.at,
            coordinator=args.coordinator)
    except ValueError as exc:
        raise SystemExit(f"--spares: {exc}") from None
    spec = replace(_spec_from(args), reshard=(action,), audit=True)
    result = run_experiment(spec)
    print(render_table(_HEADERS, [_result_rows(args.protocol, result)],
                       title=f"reshard: +{args.spares} processors at "
                             f"t={args.at} (seed={args.seed})"))
    snapshot = result.registry.snapshot() if result.registry else {}
    counters = snapshot.get("counters", {})
    rows = [[key.split(".", 1)[1], counters[key]]
            for key in sorted(counters) if key.startswith("reshard.")]
    rows.append(["txns disturbed (stale-placement aborts)",
                 result.metrics.by_reason.get("stale-placement", 0)])
    rows.append(["audit violations", len(result.audit_violations)])
    print(render_table(["migration", "count"], rows))
    for violation in result.audit_violations[:5]:
        print(f"  violation: {violation}")
    return 1 if result.audit_violations else 0


def cmd_hunt(args) -> int:
    if args.replay is not None:
        verdict, result = replay_artifact(Path(args.replay))
        print(f"replayed {args.replay}: committed={result.committed} "
              f"aborted={result.aborted}")
        print(f"verdict: {verdict or 'clean'}")
        failed = verdict is not None
        return int(failed != args.expect_failure)

    base = _apply_flags(args, hunt_base())
    if args.reshard_at > 0 and args.reshard_spares > 0:
        base = replace(base, reshard=(ReshardAction.onto_spares(
            base.processors, args.reshard_spares, args.reshard_at),))
    cfg = HuntConfig(base=base, seed=args.seed, campaigns=args.campaigns,
                     workers=args.workers, shrink_budget=args.shrink_budget,
                     stop_after=args.stop_after)
    out_dir = Path(args.out) if args.out else None
    report = hunt(cfg, out_dir=out_dir, log=print)
    if report.survived:
        print(f"{base.protocol}: survived {report.campaigns_run} campaigns "
              f"(seed={cfg.seed}) — no invariant or 1SR violations")
    else:
        print(f"{base.protocol}: {len(report.findings)} finding(s) in "
              f"{report.campaigns_run} campaigns (seed={cfg.seed})")
        for finding in report.findings:
            size = (len(finding.shrunk) if finding.shrunk is not None
                    else len(finding.actions))
            where = "" if finding.artifact is None else f" -> {finding.artifact}"
            print(f"  campaign {finding.campaign}: {finding.verdict} "
                  f"[{size} actions{where}]")
    failed = not report.survived
    return int(failed != args.expect_failure)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtual partitions replica control — experiment CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _experiment_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="same workload, many protocols")
    cmp_p.add_argument("--protocols", default="virtual-partitions,quorum,rowa")
    _experiment_flags(cmp_p, [f for f in FLAGS if f.dest != "protocol"])
    cmp_p.set_defaults(func=cmd_compare)

    def scenario_flags(p, flavors, default):
        p.add_argument("name", choices=["example1", "example2"])
        p.add_argument("--flavor", choices=flavors, default=default)
        _add_flags(p, _flags("seed"))

    sc_p = sub.add_parser("scenario", help="run a paper scenario")
    scenario_flags(sc_p, ["naive", "vp", "both"], "both")
    sc_p.set_defaults(func=cmd_scenario)

    tr_p = sub.add_parser(
        "trace", help="run a paper scenario with structured tracing"
    )
    scenario_flags(tr_p, ["naive", "vp"], "vp")
    tr_p.add_argument("--out", default="trace.jsonl",
                      help="JSONL output path (default: trace.jsonl)")
    tr_p.add_argument("--analyze", action="store_true",
                      help="print the trace analysis report afterwards")
    tr_p.set_defaults(func=cmd_trace)

    mt_p = sub.add_parser(
        "metrics", help="run one experiment, print metrics as JSON"
    )
    _experiment_flags(mt_p)
    mt_p.set_defaults(func=cmd_metrics)

    sw_p = sub.add_parser(
        "sweep", help="run one experiment per axis value, optionally "
                      "fanned out across worker processes"
    )
    sw_p.add_argument("--axis", default="seed",
                      help="dotted ExperimentSpec path, e.g. retries, "
                           "workload.read_fraction or "
                           "session.lease_duration (default: seed)")
    sw_p.add_argument("--values", required=True,
                      help="comma-separated axis values, e.g. '1,2,3,4'")
    sw_p.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial; results are "
                           "identical either way)")
    _experiment_flags(sw_p)
    sw_p.set_defaults(func=cmd_sweep)

    rs_p = sub.add_parser(
        "reshard", help="run one experiment with a live placement "
                        "migration; print movement and disturbance counts"
    )
    rs_p.add_argument("--at", type=float, default=100.0,
                      help="simulation time of the placement change")
    rs_p.add_argument("--spares", type=int, default=1, metavar="N",
                      help="hold the N highest pids out of the initial "
                           "placement, then expand onto them (default: 1)")
    rs_p.add_argument("--coordinator", type=int, default=None,
                      help="pid that drives the migration (default: lowest "
                           "base pid)")
    _experiment_flags(rs_p)
    rs_p.set_defaults(func=cmd_reshard, placement="hash-ring")

    ht_p = sub.add_parser(
        "hunt", help="fan out randomized nemesis campaigns; shrink any "
                     "failure to a minimal replayable repro artifact"
    )
    # the table's rows at the hunt template's smaller defaults, reworded
    # where hunting changes what the flag says
    template = hunt_base()
    wording = {"copies": "replication degree per object",
               "seed": "hunt seed; every campaign derives from it"}
    _add_flags(ht_p, [
        flag._replace(default=_at(template, flag.path),
                      help=wording.get(flag.dest, flag.help))
        for flag in _flags("protocol", "processors", "objects", "copies",
                           "placement", "commit_backend", "seed")])
    ht_p.add_argument("--campaigns", type=int, default=50)
    ht_p.add_argument("--workers", type=int, default=None,
                      help="worker processes for the campaign fan-out")
    ht_p.add_argument("--out", default=None,
                      help="directory for repro artifacts (JSON)")
    ht_p.add_argument("--shrink-budget", type=int, default=48,
                      help="max re-runs the shrinker may spend per finding")
    ht_p.add_argument("--stop-after", type=int, default=1,
                      help="stop after this many findings (0 = run all)")
    ht_p.add_argument("--reshard-at", type=float, default=0.0,
                      metavar="T",
                      help="race an online reshard at T against every "
                           "campaign's faults (0 = no reshard)")
    ht_p.add_argument("--reshard-spares", type=int, default=0, metavar="N",
                      help="hold the N highest pids out of the initial "
                           "placement; the reshard expands onto them")
    ht_p.add_argument("--replay", default=None, metavar="ARTIFACT",
                      help="re-run a repro artifact instead of hunting")
    ht_p.add_argument("--expect-failure", action="store_true",
                      help="invert the exit code: success means a finding "
                           "(mutation-canary mode for CI)")
    ht_p.set_defaults(func=cmd_hunt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
