"""Unit tests for the command-line interface."""

import argparse
import math

import pytest

from repro.cli import (
    FLAGS,
    _apply_flags,
    _parse_axis_value,
    _parse_fault,
    build_parser,
    main,
)
from repro.net import FaultAction
from repro.workload import ExperimentSpec
from repro.workload.hunt import hunt_base
from repro.workload.runner import with_paths

# every table row names a real spec field: a typo fails here, at import
for _flag in FLAGS:
    with_paths(ExperimentSpec(), {_flag.path: _flag.default})


def test_parse_partition():
    assert _parse_fault("partition:1,2,3|4,5@50+30") == FaultAction(
        50.0, "partition", ((1, 2, 3), (4, 5)), 30.0)
    # no +HOLD: a permanent fault
    assert _parse_fault("partition:1|2@5").hold == math.inf


def test_parse_partition_rejects_garbage():
    for text in ("nope", "partition:|@5", "partition:1,2@", "meteor:1@5",
                 "cut:1,x@5", "crash:4@30+soon"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault(text)


def test_parse_crash():
    assert _parse_fault("crash:4@30+20") == FaultAction(30.0, "crash", (4,),
                                                        20.0)
    assert _parse_fault("surge:1,2,4.5@10+5").args == (1, 2, 4.5)
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_fault("crash:4-30")


def test_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["run"])
    assert args.protocol == "virtual-partitions"
    assert args.processors == 5
    assert args.cc == "2pl"


def test_flags_fill_the_spec_paths_they_name():
    args = build_parser().parse_args(
        ["run", "--copies", "2", "--read-fraction", "0.5", "--pi", "6",
         "--commit-backend", "paxos", "--cache", "3", "--lease", "2"])
    spec = _apply_flags(args, ExperimentSpec())
    assert spec.copies_per_object == 2
    assert spec.workload.read_fraction == 0.5
    assert (spec.config.pi, spec.config.commit_backend) == (6.0, "paxos")
    assert (spec.session.cache_capacity, spec.session.lease_duration) == (3, 2)
    # untouched session flags build no client tier at all
    plain = build_parser().parse_args(["run", "--cache-policy", "write-back"])
    assert _apply_flags(plain, ExperimentSpec()).session is None


def test_hunt_reuses_the_table_with_the_template_defaults():
    args = build_parser().parse_args(["hunt"])
    assert _apply_flags(args, hunt_base()) == hunt_base()
    assert (args.processors, args.objects, args.copies) == (4, 3, 3)
    assert not hasattr(args, "read_fraction")
    sharded = build_parser().parse_args(
        ["hunt", "--placement", "hash-ring", "--commit-backend", "paxos"])
    base = _apply_flags(sharded, hunt_base())
    assert base.placement == "hash-ring"
    assert base.config.commit_backend == "paxos"


def test_run_command_prints_table(capsys):
    code = main(["run", "--duration", "60", "--processors", "3",
                 "--objects", "3", "--check"])
    assert code == 0
    out = capsys.readouterr().out
    assert "virtual-partitions" in out
    assert "committed" in out


def test_run_with_failures(capsys):
    code = main(["run", "--duration", "80", "--processors", "3",
                 "--objects", "3", "--retries", "2",
                 "--fault", "partition:1,2|3@20+40",
                 "--fault", "crash:3@70+5"])
    assert code == 0
    assert "committed" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert [_parse_axis_value(v) for v in ("3", "0.5", "rowa")] == [
        3, 0.5, "rowa"]
    code = main(["sweep", "--axis", "protocol",
                 "--values", "rowa,virtual-partitions", "--duration", "40",
                 "--processors", "3", "--objects", "3",
                 "--fault", "crash:3@10+5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep over protocol (2 runs, workers=1)" in out
    assert "rowa" in out and "virtual-partitions" in out


def test_reshard_command(capsys):
    code = main(["reshard", "--processors", "5", "--copies", "3",
                 "--spares", "1", "--at", "20", "--duration", "60",
                 "--objects", "6", "--fault", "partition:1,2,3|4,5@30+10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reshard: +1 processors at t=20.0" in out
    assert "| campaigns_completed" in out and "| audit violations " in out
    # the bare command: no --copies replicates fully over the initial
    # ring, which holds out the spare
    assert main(["reshard", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "reshard: +1 processors at t=100.0" in out


def test_run_with_tso(capsys):
    code = main(["run", "--duration", "60", "--processors", "3",
                 "--objects", "3", "--cc", "tso"])
    assert code == 0


def test_compare_command(capsys):
    code = main(["compare", "--protocols", "virtual-partitions,rowa",
                 "--duration", "60", "--processors", "3", "--objects", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rowa" in out and "virtual-partitions" in out


def test_scenario_command(capsys):
    code = main(["scenario", "example1", "--flavor", "naive"])
    assert code == 0
    out = capsys.readouterr().out
    assert "example1" in out and "naive" in out


def test_unknown_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "paxos"])


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code = main(["trace", "example2", "--out", str(out_path), "--analyze"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "view formations" in out

    from repro.obs.export import read_jsonl

    events = read_jsonl(out_path)
    assert events
    etypes = {event.etype for event in events}
    # view-formation phases, message traffic, and txn outcomes all land
    assert "vp.invite" in etypes and "vp.commit" in etypes
    assert "msg.send" in etypes and "msg.recv" in etypes
    assert etypes & {"txn.commit", "txn.abort"}


def test_trace_command_naive_flavor(tmp_path):
    out_path = tmp_path / "naive.jsonl"
    code = main(["trace", "example1", "--flavor", "naive",
                 "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()


def test_metrics_command(capsys):
    import json

    code = main(["metrics", "--duration", "60", "--processors", "3",
                 "--objects", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"]["txn.committed"] > 0
    assert "txn.latency" in payload["histograms"]
    assert any(key.startswith("msg.kind.") for key in payload["counters"])


def test_hunt_command_convicts_and_replays_the_canary(tmp_path, capsys):
    assert main(["hunt", "--protocol", "naive-view", "--campaigns", "4",
                 "--workers", "1", "--out", str(tmp_path),
                 "--expect-failure"]) == 0
    artifact = tmp_path / "hunt-naive-view-s0-c0.json"
    assert artifact.exists()
    assert main(["hunt", "--replay", str(artifact), "--expect-failure"]) == 0
    assert "verdict: 1SR violation:" in capsys.readouterr().out


def test_hunt_command_exit_code_follows_the_expectation(capsys):
    survive = ["hunt", "--protocol", "virtual-partitions", "--campaigns", "2",
               "--workers", "1", "--stop-after", "0", "--shrink-budget", "0"]
    assert main(survive) == 0
    assert "survived 2 campaigns" in capsys.readouterr().out
    assert main(survive + ["--expect-failure"]) == 1
