"""``python -m ledger``: the perf ledger's one command.

With ``--workload`` it runs that workload for ``--seconds`` and prints,
as the last line, one JSON result (end-to-end metrics with ``--trace
0``, per-layer metrics with ``--trace 1``) — the form ``BENCHMARK.json``
promises the driver.  Without it, every workload runs untraced and
traced, every metric is printed by name, and the run document is
written to ``ledger/out/run_<commit>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SRC, compare, contract, run

SMOKE_SCALE = 1 / 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger",
                                     description=__doc__)
    parser.add_argument("--workload", help="run only this workload and "
                        "print the driver's JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="host seconds to measure each workload for "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics from "
                        "reps traced under cProfile")
    parser.add_argument("--smoke", action="store_true",
                        help="durations / 20 and one rep per workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two run documents")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run every workload twice; exit 1 unless "
                        "the two runs agree within the bounds")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"ledger: no simulator source at {SRC}", file=sys.stderr)
        return 2

    names = [workload["name"] for workload in contract()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = (args.seconds if args.seconds is not None
               else contract()["run_seconds"])
    scale, reps = (SMOKE_SCALE, 1) if args.smoke else (1.0, 0)

    try:
        if args.compare:
            before, after = (json.load(open(path)) for path in args.compare)
            rows = compare.compare(before, after)
            compare.print_rows(rows)
            return 1 if any(row["verdict"] == "worse" for row in rows) else 0
        if args.repeat_check:
            first = run.run_all(args.seed, seconds, traced=False,
                                scale=scale, reps=reps)
            second = run.run_all(args.seed, seconds, traced=False,
                                 scale=scale, reps=reps)
            rows = compare.compare(first, second)
            compare.print_rows(rows)
            disagree = [row for row in rows if not compare.agrees(row)]
            for row in disagree:
                print(f"DISAGREE: {row['workload']} {row['metric']}")
            return 1 if disagree or incorrect(first, second) else 0
        if args.workload is not None:
            record = run.run_workload(args.workload, args.seed, seconds,
                                      traced=bool(args.trace),
                                      scale=scale, reps=reps)
            run.print_record(record)
            section = "per_layer" if args.trace else "end_to_end"
            result = run.result_line(record, section)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        document = run.run_all(args.seed, seconds, scale=scale, reps=reps)
        for record in document["workloads"]:
            for section in ("end_to_end", "per_layer"):
                run.result_line(record, section)  # names match the contract
        print(f"\nwrote {run.write_run(document)}")
        return 1 if incorrect(document) else 0
    except run.LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1


def incorrect(*documents) -> bool:
    return any(record["gates"] for document in documents
               for record in document["workloads"])


if __name__ == "__main__":
    sys.exit(main())
