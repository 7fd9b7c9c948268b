"""Memory by owner: what one ledger run still holds at its end.

``tracemalloc`` (12 frames) starts before
``run_experiment(ledger.workloads.build(WORKLOAD, SEED, SCALE))``; a
snapshot taken after the run, with the result (and so the cluster)
still alive, is diffed against one taken before, and each surviving
block is charged to the owner of the innermost ``src/repro`` frame that
allocated it (EXPERIMENTS.md, "Memory by owner", lists the owners).
Prints one JSON line: MB per owner, their sum and the commits.

Run from the repo root (``ledger`` is imported from there)::

    PYTHONPATH=src python benchmarks/memory_by_owner.py steady-rw 1.0
    PYTHONPATH=src python benchmarks/memory_by_owner.py steady-rw 4.0

Slope per 1 000 commits = (MB at 4.0 - MB at 1.0) / (commits at 4.0 -
commits at 1.0) * 1 000, so fixed set-up cost cancels.  Tracing slows a
run several times over (a 4x ``steady-rw`` takes minutes).
"""

from __future__ import annotations

import argparse
import ast
import json
import linecache
import os
import sys
import tracemalloc

sys.path.insert(0, os.getcwd())

from ledger import workloads  # noqa: E402
from repro.workload.runner import run_experiment  # noqa: E402

SRC = os.path.join(os.getcwd(), "src", "repro") + os.sep
#: lines that append to a registry sample list
SAMPLE_APPENDS = ("fanout_latencies.append", "in_doubt_dwell.append",
                  "latencies.append", "read_latencies.append")
_parsed: dict = {}


def _spans(path: str):
    """``(function spans, history.record(...) call spans)`` of a file."""
    if path not in _parsed:
        tree = ast.parse(open(path).read())
        functions, records = [], []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((node.lineno, node.end_lineno, node.name))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "record"
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "history"):
                records.append((node.lineno, node.end_lineno))
        _parsed[path] = (functions, records)
    return _parsed[path]


def owner(traceback) -> str:
    frames = [f for f in traceback if f.filename.startswith(SRC)]
    if not frames:
        return "other"
    frame = frames[-1]  # tracemalloc lists the oldest frame first
    rel = frame.filename[len(SRC):]
    text = linecache.getline(frame.filename, frame.lineno)
    functions, records = _spans(frame.filename)
    enclosing = [(a, name) for a, b, name in functions
                 if a <= frame.lineno <= b]
    function = max(enclosing)[1] if enclosing else None
    in_record = any(a <= frame.lineno <= b for a, b in records)
    callers = {f.filename[len(SRC):] for f in frames[:-1]}
    storage = rel == "node/storage/engine.py"
    if rel.startswith("analysis/") or (
            rel in ("core/access.py", "protocols/base.py") and in_record):
        return "History"
    if any(append in text for append in SAMPLE_APPENDS):
        return "registry sample lists"
    if (rel in ("commit/base.py", "commit/two_phase.py")
            or function == "record_decision"):
        return "decision log"
    if rel == "commit/paxos.py" or (
            storage and function == "write_cell"
            and "commit/paxos.py" in callers):
        return "px: cells"
    if rel == "node/storage/checkpoint.py" or (
            storage and function in ("_advanced", "checkpoint")):
        return "checkpoint images"
    if (rel.startswith("node/storage/") and "LogEntry(" in text) or (
            storage and function == "_set"):
        return "§6 write logs"
    if rel == "node/storage/wal.py" or function == "record_prepare":
        return "WAL records"
    return "other"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("scale", type=float)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    tracemalloc.start(12)
    before = tracemalloc.take_snapshot()
    result = run_experiment(workloads.build(args.workload, args.seed,
                                            args.scale))
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    held: dict = {}
    for stat in after.compare_to(before, "traceback"):
        key = owner(stat.traceback)
        held[key] = held.get(key, 0) + stat.size_diff
    print(json.dumps({
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "commits": result.committed,
        "mb": {key: round(size / 1e6, 6) for key, size in sorted(held.items())},
        "all": round(sum(held.values()) / 1e6, 6)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
