"""Satellite: every benchmark entry point runs with tiny parameters.

Each ``benchmarks/bench_*.py`` exposes ``run(**kwargs)`` and a
module-level ``SMOKE`` dict of small-scale overrides.  This test
imports every bench and executes it with those, so a broken bench
fails fast in the unit suite instead of at benchmark time.

A ``run()`` that takes ``workers`` (``bench_main`` forwards
``--workers`` to it) is run at ``workers=1`` *and* ``workers=2``
whatever the host's CPU count — ``workers=None`` means "one per CPU",
which let a 1-CPU host hide a pool-path pickling failure — and the two
runs must agree on every ``ExperimentResult`` fingerprint the bench
returns.  The in-process benches (no ``workers`` parameter) run once.
"""

import importlib.util
import inspect
import json
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.net import FaultAction
from repro.workload import ScheduledNemesis
from repro.workload.runner import (
    ExperimentResult,
    spec_from_plain,
    spec_to_plain,
)

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def _load(path: Path):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))  # for `from _shared import ...`
    name = f"smoke_{path.stem}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered before exec: schedule classes the bench defines travel
    # to pool workers pickled by ``<module name>.<class name>``
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _fingerprints(outcome):
    """Fingerprints of every ``ExperimentResult`` in a bench's return
    value (benches nest them in dicts/lists keyed by table cell)."""
    if isinstance(outcome, ExperimentResult):
        return [outcome.fingerprint()]
    if isinstance(outcome, dict):
        outcome = list(outcome.values())
    if isinstance(outcome, (list, tuple)):
        return [fp for item in outcome for fp in _fingerprints(item)]
    return []


def test_all_benchmarks_discovered():
    assert len(BENCH_FILES) >= 13


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_smoke(path, capsys):
    module = _load(path)
    assert hasattr(module, "run"), f"{path.name} has no run() entry point"
    assert hasattr(module, "SMOKE"), f"{path.name} has no SMOKE parameters"
    pooled = "workers" in inspect.signature(module.run).parameters
    widths = [{"workers": 1}, {"workers": 2}] if pooled else [{}]
    fingerprints = []
    for width in widths:
        result = module.run(**{**module.SMOKE, **width})
        assert result is not None
        out = capsys.readouterr().out
        # every bench emits its headline numbers as one structured JSON line
        assert '"bench"' in out and '"metrics"' in out
        fingerprints.append(_fingerprints(result))
    assert all(found == fingerprints[0] for found in fingerprints)


def test_fault_throughput_spec_is_replayable_plain_data():
    """E9's failure script is a plan: the spec splits into JSON-able
    knobs plus an action list the way a hunt artifact does, and crosses
    the pool boundary by pickle."""
    spec = _load(BENCH_DIR / "bench_fault_throughput.py").e9_spec()
    assert spec.failures.actions
    wire = json.loads(json.dumps({
        "spec": spec_to_plain(replace(spec, failures=None)),
        "actions": [a.to_dict() for a in spec.failures.actions],
    }))
    actions = tuple(FaultAction.from_dict(d) for d in wire["actions"])
    assert replace(spec_from_plain(wire["spec"]),
                   failures=ScheduledNemesis(actions)) == spec
    assert pickle.loads(pickle.dumps(spec.failures)) == spec.failures
