"""Do two source trees run the ledger's workloads identically?

Runs each ``ledger.workloads.build(workload, seed, scale)`` spec under
both trees and compares ``ExperimentResult.fingerprint()`` key by key,
plus one more key, ``committed_writes``: a digest of the run's
committed logical writes (:func:`committed_writes`)::

    python -m tests.equiv OLD_ROOT NEW_ROOT [--workload W ...]
        [--seeds 1,2,3] [--scale F] [--ignore DOTTED.KEY ...]

Each root is a checkout of the repository (``git archive`` an old
commit to get one).  Each side runs in its own subprocess with
``cwd=ROOT`` and ``PYTHONPATH=ROOT/src:ROOT``, so each imports only its
own tree; the two sides run at the same time.  Per spec it prints
"equal", or every dotted key path whose values differ or that exists on
one side only.  ``--ignore`` drops a key and everything under it.  The
exit status is 1 if any spec differs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("steady-rw", "read-lease", "shard-durable", "fault-churn")


def committed_writes(history) -> str:
    """A digest of ``history``'s committed logical writes: each one's
    ``(txn, obj, version)``, committed transactions in begin order."""
    import hashlib
    writes = [(record.txn, op.obj, op.version)
              for record in history.committed()
              for op in record.logical_ops if op.kind == "w"]
    return hashlib.sha256(repr(writes).encode()).hexdigest()


#: the program each side runs: argv is the specs as JSON, then the scale;
#: it prints one fingerprint per spec, one JSON line each.  It carries
#: its own copy of ``committed_writes``: each side imports only its tree
_CHILD = inspect.getsource(committed_writes) + """
import json, sys
from ledger.workloads import build
from repro.workload.runner import run_experiment
scale = float(sys.argv[2])
for name, seed in json.loads(sys.argv[1]):
    result = run_experiment(build(name, seed, scale))
    fingerprint = result.fingerprint()
    fingerprint["committed_writes"] = committed_writes(result.cluster.history)
    print(json.dumps(fingerprint, sort_keys=True, default=repr), flush=True)
"""


def _ignored(path: str, ignore) -> bool:
    return any(path == key or path.startswith(key + ".") for key in ignore)


def diff(old, new, ignore=(), path: str = "") -> list:
    """The dotted key paths under which ``old`` and ``new`` differ, as
    ``"KEY: OLD != NEW"``, ``"KEY: only in old"`` or ``"KEY: only in
    new"`` lines.  List items are keyed by index; a key in ``ignore``
    is skipped with everything under it."""
    if isinstance(old, dict) and isinstance(new, dict):
        pair = (old, new)
    elif isinstance(old, list) and isinstance(new, list):
        pair = (dict(enumerate(old)), dict(enumerate(new)))
    else:
        same = old == new or (isinstance(old, float) and isinstance(new, float)
                              and math.isnan(old) and math.isnan(new))
        return [] if same else [f"{path}: {old!r} != {new!r}"]
    lines = []
    for key in sorted(pair[0].keys() | pair[1].keys()):
        sub = f"{path}.{key}" if path else str(key)
        if _ignored(sub, ignore):
            continue
        if key not in pair[1]:
            lines.append(f"{sub}: only in old")
        elif key not in pair[0]:
            lines.append(f"{sub}: only in new")
        else:
            lines.extend(diff(pair[0][key], pair[1][key], ignore, sub))
    return lines


def _start(root: str, specs: list, scale: float) -> subprocess.Popen:
    root = os.path.abspath(root)
    env = dict(os.environ,
               PYTHONPATH=os.path.join(root, "src") + os.pathsep + root)
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, json.dumps(specs), str(scale)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def _fingerprints(sides) -> list:
    """Each side's fingerprints, once both runs have ended."""
    outs = [(root, process, process.communicate()[0]) for root, process in sides]
    for root, process, _ in outs:
        if process.returncode:
            sys.exit(f"{root}: the run failed (exit {process.returncode})")
    return [[json.loads(line) for line in out.splitlines()]
            for _, _, out in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.equiv",
        description="Compare the ledger workloads' fingerprints under "
                    "two source trees.")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default all four)")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length scale (default 1.0, full size)")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="DOTTED.KEY",
                        help="a fingerprint key to leave out (repeatable)")
    args = parser.parse_args(argv)
    for root in (args.old_root, args.new_root):
        if not os.path.isdir(os.path.join(root, "src")):
            parser.error(f"{root} is not a source tree (no src/)")
    seeds = [int(s) for s in args.seeds.split(",")]
    specs = [(w, s) for w in args.workload or WORKLOADS for s in seeds]
    sides = [(root, _start(root, specs, args.scale))
             for root in (args.old_root, args.new_root)]
    old, new = _fingerprints(sides)
    differs = False
    for (name, seed), a, b in zip(specs, old, new):
        lines = diff(a, b, tuple(args.ignore))
        print(f"{name} seed {seed}: {'differs' if lines else 'equal'}")
        for line in lines:
            print(f"  {line}")
        differs = differs or bool(lines)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
