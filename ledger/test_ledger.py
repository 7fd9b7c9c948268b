"""Tests of the perf ledger itself: ``python -m pytest ledger/``.

Not part of tier-1 (``testpaths`` is ``tests``).  The smoke runs start
child interpreters exactly as the real command does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import ledger
from ledger import compare, layers, metrics

sys.path.insert(0, str(ledger.SRC))

from repro.analysis.history import History  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def ledger_command(*args, cwd=ledger.ROOT):
    return subprocess.run([sys.executable, "-m", "ledger", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke():
    """One ``--smoke`` run of every workload: (stdout, document, seconds)."""
    started = time.monotonic()
    proc = ledger_command("--smoke", "--seed", "3")
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1].removeprefix("wrote ")
    with open(path) as handle:
        return proc.stdout, json.load(handle), elapsed


def test_contract_fits_the_drivers_limits():
    contract = ledger.contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["ledger"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(entry for entry in contract["end_to_end"]
                 if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"]
                                 for entry in contract["end_to_end"])
    # the whole run set must fit the driver's time cap
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 5) <= 3420


def test_smoke_prints_every_declared_name(smoke):
    stdout, document, elapsed = smoke
    assert elapsed < 20, f"--smoke took {elapsed:.1f} s"
    contract = ledger.contract()
    assert ([record["workload"] for record in document["workloads"]]
            == [workload["name"] for workload in contract["workloads"]])
    for section in ("end_to_end", "per_layer"):
        declared = {entry["name"] for entry in contract[section]}
        for record in document["workloads"]:
            assert set(record[section]) == declared
    printed = set(re.findall(r"^    (\S+) ", stdout, flags=re.MULTILINE))
    assert printed == {entry["name"] for entry
                       in contract["end_to_end"] + contract["per_layer"]}
    for workload in contract["workloads"]:
        assert f"== {workload['name']} " in stdout


def test_self_shares_sum_to_one(smoke):
    for record in smoke[1]["workloads"]:
        shares = [value for name, value in record["per_layer"].items()
                  if name.endswith(".self_share")]
        assert len(shares) == len(layers.LAYERS)
        assert abs(sum(shares) - 1.0) <= 1e-9


def test_smoke_document_records_host_and_raw_reps(smoke):
    document = smoke[1]
    assert document["seed"] == 3
    assert {"cpu_model", "cpu_count", "python"} <= set(document["host"])
    for record in document["workloads"]:
        assert not record["gates"]
        assert record["attempted"] == 3 and record["failed"] == 0
        for values in record["samples"].values():
            assert len(values) == record["reps"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_driver_result_line(trace, section):
    proc = ledger_command("--workload", "read-lease", "--seed", "5",
                          "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {entry["name"]: entry["unit"]
                for entry in ledger.contract()[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ledger.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ledger.ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = ledger_command("--workload", "steady-rw", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_every_module_has_exactly_one_layer():
    modules = sorted((ledger.SRC / "repro").rglob("*.py"))
    assert modules
    for module in modules:
        # an unmapped directory raises KeyError here
        assert layers.layer_of(str(module)) in layers.LAYERS
    engine = ledger.SRC / "repro" / "node" / "storage" / "engine.py"
    assert layers.layer_of(str(engine)) == "storage"
    assert layers.layer_of(str(ledger.SRC / "repro" / "cluster.py")) \
        == "workload"
    assert layers.layer_of("/usr/lib/python3.11/random.py") is None
    assert layers.layer_of("~") is None


def test_builtins_are_charged_to_the_calling_layer():
    kernel = ("/x/src/repro/sim/kernel.py", 10, "run")
    send = ("/x/src/repro/net/network.py", 20, "send")
    heappush = ("~", 0, "<built-in method heappush>")
    expovariate = ("/usr/lib/python3.11/random.py", 5, "expovariate")
    log = ("~", 0, "<built-in method math.log>")
    stats = {
        kernel: (1, 1, 2.0, 9.0, {}),
        send: (4, 4, 1.0, 3.0, {kernel: (4, 4, 1.0, 3.0)}),
        heappush: (6, 6, 0.6, 0.6, {kernel: (4, 4, 0.4, 0.4),
                                     send: (2, 2, 0.2, 0.2)}),
        expovariate: (3, 3, 0.3, 0.5, {send: (3, 3, 0.3, 0.5)}),
        log: (3, 3, 0.2, 0.2, {expovariate: (3, 3, 0.2, 0.2)}),
    }
    found = layers.attribute(stats)
    assert found["sim"] == {"self_s": pytest.approx(2.4), "calls": 5}
    assert found["net"] == {"self_s": pytest.approx(1.5), "calls": 9}
    assert found["python"] == {"self_s": pytest.approx(0.2), "calls": 3}
    shares = layers.self_shares(found)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
    spans = layers.spans(stats)
    assert spans["Network.send"] == {"calls": 4, "busy_s": 3.0}
    assert spans["Processor.rpc"] == {"calls": 0, "busy_s": 0.0}


def test_slicing_the_run_leaves_the_fingerprint_alone():
    script = (
        "from dataclasses import replace\n"
        "from ledger import rep, workloads\n"
        "spec = replace(workloads.build('fault-churn', 2), duration=150.0)\n"
        "hooks = rep.Hooks()\n"
        "whole, _ = hooks.run(spec)\n"
        "hooks.measuring = True\n"
        "sliced, _ = hooks.run(spec)\n"
        "assert len(hooks.slices_s) == rep.SLICES\n"
        "assert whole.committed > 20\n"
        "assert (rep.fingerprint_digest(whole)\n"
        "        == rep.fingerprint_digest(sliced))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ledger.ROOT,
        env={"PYTHONPATH": str(ledger.SRC)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr


def history_with(*txns) -> History:
    """``txns`` are ``(origin, begin, end_or_None, status)``."""
    history = History()
    for index, (origin, begin, end, status) in enumerate(txns):
        history.begin_txn((origin, index), origin, begin)
        if status == "committed":
            history.commit_txn((origin, index), end)
        elif status == "aborted":
            history.abort_txn((origin, index), end, "test")
    return history


def test_outage_ticks_max_on_a_hand_built_history():
    everyone = frozenset({1, 2, 3, 4, 5})
    majority = frozenset({1, 2, 3})
    history = history_with(
        (1, 95.0, 99.0, "committed"),    # before the fault: ignored
        (1, 98.0, 104.0, "committed"),   # began before it: ignored
        (4, 101.0, 103.0, "committed"),  # minority side: ignored
        (2, 102.0, 110.0, "aborted"),    # not a commit
        (3, 105.0, 112.0, "committed"),  # first service after t=100
        (1, 106.0, 111.5, "committed"),  # began later but ended first
        (5, 141.0, 147.0, "committed"),  # first service after the heal
    )
    instants = [(100.0, majority), (140.0, everyone)]
    assert metrics.outage_ticks_max(history, instants, 500.0) == 11.5
    assert metrics.outage_ticks_max(history, instants[1:], 500.0) == 7.0
    # no commit follows the last instant: the outage runs to the end
    assert metrics.outage_ticks_max(
        history, [(200.0, everyone)], 500.0) == 300.0
    assert metrics.outage_ticks_max(history, [], 500.0) == 0.0


def test_mean_in_flight_counts_overlap():
    history = history_with(
        (1, 0.0, 10.0, "committed"),   # overlaps [5, 15) for 5 ticks
        (2, 8.0, 30.0, "aborted"),     # overlaps for 7 ticks
        (3, 12.0, None, "active"),     # open to the end: 3 ticks
        (4, 20.0, 25.0, "committed"),  # outside the window
    )
    assert metrics.mean_in_flight(history, 5.0, 15.0) \
        == pytest.approx((5 + 7 + 3) / 10)


def run_document(programs_per_s, msgs_per_commit):
    end_to_end = {entry["name"]: 1.0
                  for entry in ledger.contract()["end_to_end"]}
    end_to_end["programs_per_s"] = programs_per_s[2]
    end_to_end["msgs_per_commit"] = msgs_per_commit
    samples = {"programs_per_s": programs_per_s, "setup_s": [1.0] * 5,
               "peak_rss_mb": [1.0] * 5}
    return {"workloads": [{"workload": "steady-rw",
                           "end_to_end": end_to_end, "samples": samples}]}


def test_compare_uses_the_contracts_bounds():
    base = run_document([98.0, 99.0, 100.0, 101.0, 102.0], 40.0)
    verdicts = {}
    for label, other in {
        "same": run_document([99.0, 100.0, 101.0, 102.0, 103.0], 40.0),
        "better": run_document([128.0, 129.0, 130.0, 131.0, 132.0], 39.0),
        "worse": run_document([68.0, 69.0, 70.0, 71.0, 72.0], 40.5),
        "unresolved": run_document([50.0, 60.0, 100.0, 140.0, 150.0], 40.0),
    }.items():
        rows = {row["metric"]: row for row in compare.compare(base, other)}
        verdicts[label] = (rows["programs_per_s"]["verdict"],
                           rows["msgs_per_commit"]["verdict"])
    assert verdicts == {
        "same": ("same", "same"),
        "better": ("better", "better"),    # sim metrics diff exactly
        "worse": ("worse", "worse"),
        "unresolved": ("unresolved", "same"),
    }
    rows = compare.compare(base, base)
    assert all(compare.agrees(row) for row in rows)
    drifted = compare.compare(base, run_document([98.0] * 5, 40.0001))
    assert [row["metric"] for row in drifted if not compare.agrees(row)] \
        == ["msgs_per_commit"]
