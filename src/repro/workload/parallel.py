"""Parallel experiment execution: fan specs out across CPU cores.

Every experiment is an isolated, deterministically seeded simulation,
so a sweep is embarrassingly parallel: each child process builds its
own :class:`~repro.sim.Simulator` from the pickled
:class:`~repro.workload.runner.ExperimentSpec` and replays exactly the
run the serial path would have produced.  Only wall-clock differs —
committed/aborted counts, protocol metrics, message-cost counters, and
the registry snapshot are identical between ``workers=1`` and
``workers=N`` (pinned by ``tests/workload/test_parallel.py``).

Two practical constraints follow from pickling:

* Specs cross a process boundary, so their callables (``failures``,
  ``objects_for``) must be module-level functions or picklable
  callable objects — not lambdas or closures.
  :class:`~repro.workload.failures.ScheduledNemesis` is the reference
  example.
* A finished :class:`Cluster` holds live generators and cannot cross
  back, so parallel results carry ``cluster=None``; everything derived
  from the cluster — metrics, network stats, the registry, the 1SR
  verdict — is computed in the child and shipped home as plain data.

A child that raises does not hang the pool: the exception is re-raised
in the parent by ``Future.result()`` in submission order.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, List, Optional

from .runner import ExperimentResult, ExperimentSpec, run_experiment


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per *available* CPU
    (CPU affinity masks and container quotas count, raw core totals
    don't)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _run_portable(spec: ExperimentSpec) -> ExperimentResult:
    """Child entry point: run one experiment, return the picklable part
    (the live cluster stays in the child)."""
    return replace(run_experiment(spec), cluster=None)


def run_many(specs: Iterable[ExperimentSpec],
             workers: Optional[int] = None) -> List[ExperimentResult]:
    """Run every spec, in parallel when ``workers`` allows.

    Results come back in submission order regardless of which child
    finishes first, so callers can ``zip`` them with their inputs.
    ``workers=None`` uses one worker per CPU; ``workers<=1`` (or a
    single spec) runs serially in-process, in which case results keep
    their live ``cluster`` exactly as :func:`run_experiment` returns it.
    """
    specs = list(specs)
    count = default_workers() if workers is None else workers
    if count <= 1 or len(specs) <= 1:
        return [run_experiment(spec) for spec in specs]
    # imported here: a one-run process loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(count, len(specs))) as pool:
        futures = [pool.submit(_run_portable, spec) for spec in specs]
        return [future.result() for future in futures]
