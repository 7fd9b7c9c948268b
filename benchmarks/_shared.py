"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's artifacts or
quantifies one of its claims (the experiment ids E1–E9 in DESIGN.md).
Every file is both a pytest-benchmark target (``pytest benchmarks/
--benchmark-only``) and a standalone script (``python
benchmarks/bench_access_cost.py`` prints the table).

Each bench's ``run()`` accepts keyword overrides for its sweep
parameters; the module-level ``SMOKE`` dict holds a tiny configuration
the smoke tests (``tests/benchmarks/test_smoke.py``) run every entry
point with.  Alongside its human-readable table, every bench prints its
headline numbers as one ``{"bench": ..., "metrics": ...}`` JSON line,
shaped like a registry snapshot.

Script entry points share one CLI (:func:`bench_main`): ``--workers N``
fans the bench's experiment batch out through
:func:`repro.workload.parallel.run_many`, ``--smoke`` selects the tiny
configuration, and ``--check`` runs the deterministic assertions CI
leans on.  Benches whose scenarios mutate a live cluster mid-run
(failure injection at a chosen instant, probing a split cluster) run
their clusters in-process: their ``run()`` takes no ``workers`` and
the script refuses ``--workers``.
"""

from __future__ import annotations

import inspect
import json
import sys
from typing import Any, Callable, Mapping, Optional


def report(text: str) -> None:
    """Print a benchmark table (visible with ``pytest -s`` and when run
    as a script; always written to stdout for tee'd logs)."""
    print()
    print(text)
    sys.stdout.flush()


def emit_metrics(bench: str, values: Mapping[str, float]) -> dict:
    """Print a bench's headline numbers as one structured JSON line.

    ``values`` is a flat ``{metric-name: number}`` mapping, emitted as
    the gauges of a registry-snapshot-shaped payload.
    """
    payload = {"bench": bench, "metrics": {
        "counters": {}, "gauges": dict(sorted(values.items())),
        "histograms": {}}}
    print(json.dumps(payload, sort_keys=True))
    sys.stdout.flush()
    return payload


def bench_main(name: str, run: Callable[..., Any],
               check: Optional[Callable[[Any], None]] = None,
               smoke: Optional[Mapping[str, Any]] = None,
               check_params: Optional[Mapping[str, Any]] = None,
               argv: Optional[list] = None) -> Any:
    """Shared CLI for every bench script — the ``--workers`` sweep runner.

    * ``--workers N`` — process-pool width for the bench's experiment
      fan-outs, forwarded as ``run(workers=N)`` when ``run`` takes it
      (in-process benches refuse the flag).  Spec batches go through
      :func:`repro.workload.parallel.run_many`, which returns results
      in submission order — so ``N`` changes only the wall-clock,
      never a table, metric, or fingerprint.
    * ``--smoke`` — run the module's ``SMOKE`` configuration instead of
      the full sweep.
    * ``--check`` — run with ``check_params`` (full-size when omitted),
      apply the bench's deterministic assertions, and print a
      machine-greppable ok line.  Checks assert on dispatched-event
      counts and fingerprints, never on wall-clock, so CI cannot flake
      on a loaded runner.

    Explicit flags compose: ``--check --workers 4`` checks the
    parallel path, and must produce the same outcome as ``--workers 1``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    kwargs: dict = {}
    if "--workers" in argv:
        if "workers" not in inspect.signature(run).parameters:
            raise SystemExit(
                f"{name} runs in-process; --workers does not apply")
        index = argv.index("--workers")
        if index + 1 >= len(argv):
            raise SystemExit("--workers requires an integer argument")
        try:
            kwargs["workers"] = int(argv[index + 1])
        except ValueError:
            raise SystemExit(
                f"--workers requires an integer, got {argv[index + 1]!r}"
            ) from None
    if "--smoke" in argv:
        kwargs = {**(smoke or {}), **kwargs}
    if "--check" in argv:
        kwargs = {**(check_params or {}), **kwargs}
        outcome = run(**kwargs)
        if check is not None:
            check(outcome)
        print(f"{name} --check: ok")
        return outcome
    return run(**kwargs)


def run_once(benchmark, fn: Callable):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    These are simulation experiments, not microbenchmarks: one round is
    the meaningful unit, and the table it prints is the result.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
