"""Parallel sweep engine: ``workers=N`` must change nothing but
wall-clock.  Every deterministic output — committed/aborted counts,
protocol metrics, message-cost counters, the registry snapshot — is
compared between the serial path and the process pool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.workload import (
    ExperimentSpec,
    WorkloadSpec,
    run_experiment,
    run_many,
    sweep,
    sweep_protocols,
)


def small_spec(**kwargs):
    defaults = dict(
        processors=3, objects=4, seed=2, duration=80.0, grace=20.0,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                              mean_interarrival=10.0),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_run_many_preserves_submission_order():
    specs = [small_spec(seed=seed) for seed in (7, 3, 11)]
    results = run_many(specs, workers=2)
    serial = [run_experiment(spec) for spec in specs]
    for got, want in zip(results, serial):
        assert got.fingerprint() == want.fingerprint()


def test_run_many_serial_path_keeps_live_cluster():
    results = run_many([small_spec()], workers=4)  # single spec → serial
    assert results[0].cluster is not None
    parallel = run_many([small_spec(), small_spec(seed=5)], workers=2)
    assert all(result.cluster is None for result in parallel)


def test_sweep_parallel_equals_serial():
    base = small_spec()
    serial = sweep(base, "seed", [1, 2, 3, 4], workers=1)
    parallel = sweep(base, "seed", [1, 2, 3, 4], workers=4)
    assert [value for value, _ in serial] == [v for v, _ in parallel]
    for (_, a), (_, b) in zip(serial, parallel):
        assert a.fingerprint() == b.fingerprint()
        assert a.events_dispatched == b.events_dispatched > 0


def test_sweep_protocols_parallel_equals_serial():
    base = small_spec()
    protocols = ["virtual-partitions", "rowa", "quorum"]
    serial = sweep_protocols(base, protocols, workers=1)
    parallel = sweep_protocols(base, protocols, workers=4)
    assert list(serial) == list(parallel) == protocols
    for name in protocols:
        assert serial[name].fingerprint() == parallel[name].fingerprint()


def test_crashing_child_surfaces_exception():
    """A spec that raises in the worker re-raises in the parent rather
    than hanging the pool (copies > processors is rejected at cluster
    build time)."""
    specs = [small_spec(seed=1), small_spec(seed=2, copies_per_object=99)]
    with pytest.raises(ValueError, match="copies_per_object"):
        run_many(specs, workers=2)


def test_fingerprint_ignores_wall_clock():
    from dataclasses import replace

    result = run_experiment(small_spec())
    faster = replace(result, wall_seconds=result.wall_seconds * 100)
    assert result.fingerprint() == faster.fingerprint()
    assert "wall_seconds" not in result.fingerprint()


def test_a_one_run_process_loads_no_process_pool():
    """Only ``run_many``'s parallel branch needs a pool, so a process
    that imports the harness and the cluster to make one run never
    loads ``multiprocessing`` (nor the socket, logging and subprocess
    modules it pulls in).  A fresh interpreter: this one has them."""
    code = ("import sys, repro.workload.runner, repro.cluster; "
            "print(sorted(name for name in ('multiprocessing', "
            "'concurrent.futures.process') if name in sys.modules))")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=60)
    assert loaded.stdout.strip() == "[]"
