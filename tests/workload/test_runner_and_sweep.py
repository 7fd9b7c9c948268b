"""Unit tests for the experiment runner and sweeps."""

from math import inf

import pytest

from repro.client.session import SessionSpec
from repro.core.config import ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.workload import (
    ExperimentSpec,
    WorkloadSpec,
    build_cluster,
    run_experiment,
    sweep,
    sweep_protocols,
)
from repro.workload.runner import with_paths


def small_spec(**kwargs):
    defaults = dict(
        processors=3, objects=4, seed=2, duration=120.0, grace=30.0,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                              mean_interarrival=10.0),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_build_cluster_places_objects_round_robin():
    cluster = build_cluster(small_spec(copies_per_object=2))
    assert cluster.placement.copies("o0") == {1, 2}
    assert cluster.placement.copies("o1") == {2, 3}
    assert cluster.placement.copies("o2") == {3, 1}


def test_build_cluster_full_replication_default():
    cluster = build_cluster(small_spec())
    assert cluster.placement.copies("o0") == {1, 2, 3}


def test_copies_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_cluster(small_spec(copies_per_object=9))


def test_run_experiment_produces_work():
    result = run_experiment(small_spec())
    assert result.committed > 0
    assert result.metrics.logical_reads > 0
    assert result.network["sent"] > 0
    assert 0.0 < result.commit_rate <= 1.0


def test_run_experiment_check_flag():
    result = run_experiment(small_spec(duration=60.0, check=True))
    assert result.one_copy_ok is True


def test_derived_metrics():
    result = run_experiment(small_spec())
    assert result.reads_per_logical_read == pytest.approx(1.0)
    assert result.writes_per_logical_write == pytest.approx(3.0)
    mix = result.accesses_per_operation
    assert 1.0 <= mix <= 3.0
    assert result.messages_per_committed_txn > 0


def test_experiment_is_deterministic():
    a = run_experiment(small_spec())
    b = run_experiment(small_spec())
    assert (a.committed, a.aborted) == (b.committed, b.aborted)
    assert a.network["sent"] == b.network["sent"]


def test_sweep_over_spec_field():
    results = sweep(small_spec(duration=60.0), "seed", [1, 2])
    assert len(results) == 2
    assert results[0][0] == 1 and results[1][0] == 2


def test_sweep_over_workload_field():
    results = sweep(small_spec(duration=60.0), "workload.read_fraction",
                    [0.5, 1.0])
    pure_reads = results[1][1]
    assert pure_reads.metrics.logical_writes == 0


def test_sweep_over_an_absent_nested_spec_starts_from_its_defaults():
    (_, leased), = sweep(small_spec(duration=60.0),
                         "session.lease_duration", [4.0])
    assert leased.spec.session == SessionSpec(lease_duration=4.0)
    assert leased.registry.snapshot()["counters"]["client.lease.granted"] > 0


def test_with_paths_validates_only_the_final_combination():
    # write-back alone is invalid; set together with a capacity it is not
    spec = with_paths(small_spec(), {"session.cache_policy": "write-back",
                                     "session.cache_capacity": 4,
                                     "config.pi": 6.0, "retries": 2})
    assert spec.session == SessionSpec(4, "write-back")
    assert spec.config == ProtocolConfig(pi=6.0) and spec.retries == 2


@pytest.mark.parametrize("axis", ["bogus", "workload.bogus", "placement.x"])
def test_sweep_unknown_axis_rejected(axis):
    with pytest.raises(AttributeError):
        sweep(small_spec(), axis, [1])


def test_sweep_protocols_pairs_seeds():
    results = sweep_protocols(small_spec(duration=60.0),
                              ["virtual-partitions", "rowa"])
    assert set(results) == {"virtual-partitions", "rowa"}
    # identical workload stream: same number of attempts
    vp, rowa = results["virtual-partitions"], results["rowa"]
    assert vp.attempted == rowa.attempted


def test_failures_callback_runs():
    seen = []

    def inject(cluster):
        seen.append(True)
        apply_schedule(cluster.injector,
                       [FaultAction(10.0, "crash", (3,), inf)])

    result = run_experiment(small_spec(failures=inject, retries=1))
    assert seen == [True]
    assert result.committed > 0  # 2-of-3 majority still works


# -- open-loop driver and the client tier ------------------------------------


def test_open_loop_produces_work_and_latency_samples():
    result = run_experiment(small_spec(open_loop=True, txns_per_client=4,
                                       retries=3))
    assert result.committed > 0
    summary = result.latency_summary()
    assert summary["count"] > 0
    assert result.latency_p99 >= result.latency_p50 >= 0.0


def test_open_loop_prunes_finished_workers(monkeypatch):
    """An open-loop client keeps its workers (to join the live ones at
    the end) in a list pruned of finished ones as ``Processor.spawn``
    prunes its bodies: it tracks the live workers, not every arrival."""
    from repro.node.processor import SPAWN_SLACK
    from repro.workload import runner
    from repro.workload.generator import WorkloadGenerator

    clients, sizes = [], []
    client = runner._client
    next_program = WorkloadGenerator.next_program

    def recorded_client(*args, **kwargs):
        clients.append(client(*args, **kwargs))
        return clients[-1]

    def sampled_program(self):
        sizes.extend(len(generator.gi_frame.f_locals["workers"])
                     for generator in clients if generator.gi_frame)
        return next_program(self)

    monkeypatch.setattr(runner, "_client", recorded_client)
    monkeypatch.setattr(WorkloadGenerator, "next_program", sampled_program)
    result = run_experiment(small_spec(open_loop=True, duration=3000.0,
                                       retries=3))
    assert len(sizes) > 10 * SPAWN_SLACK  # arrivals, one sample each
    assert max(sizes) <= 2 * SPAWN_SLACK
    assert result.committed > 0


def test_closed_and_open_loop_draw_rng_identically(monkeypatch):
    """Satellite pin: both loop modes consume the workload rng in the
    same per-client order (interarrival, program, interarrival, ...),
    so switching modes never perturbs what work arrives — only when it
    runs.  (The closed loop's byte-identity to the pre-client-tier
    driver is pinned by the golden-trace test.)"""
    from repro.workload.generator import WorkloadGenerator

    created = []
    original_init = WorkloadGenerator.__init__
    original_interarrival = WorkloadGenerator.next_interarrival
    original_program = WorkloadGenerator.next_program

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.draws = []
        created.append(self)

    def recording_interarrival(self):
        value = original_interarrival(self)
        self.draws.append(("ia", value))
        return value

    def recording_program(self):
        program = original_program(self)
        self.draws.append(("prog", tuple(program)))
        return program

    monkeypatch.setattr(WorkloadGenerator, "__init__", recording_init)
    monkeypatch.setattr(WorkloadGenerator, "next_interarrival",
                        recording_interarrival)
    monkeypatch.setattr(WorkloadGenerator, "next_program",
                        recording_program)

    run_experiment(small_spec(txns_per_client=5, retries=3))
    closed = [generator.draws for generator in created]
    created.clear()
    run_experiment(small_spec(txns_per_client=5, retries=3,
                              open_loop=True))
    opened = [generator.draws for generator in created]

    assert closed == opened
    for draws in closed:
        kinds = [kind for kind, _ in draws]
        assert kinds == ["ia", "prog"] * 5


def test_session_run_collects_client_metrics():
    from repro.client.session import SessionSpec

    result = run_experiment(small_spec(
        txns_per_client=5, retries=3,
        session=SessionSpec(cache_capacity=4, cache_policy="write-back",
                            lease_duration=5.0)))
    counters = result.registry.snapshot()["counters"]
    assert counters["client.programs"] == 15
    assert counters["client.programs_committed"] > 0
    assert result.local_read_fraction > 0
    assert result.messages_per_client_program > 0


def test_disabled_session_spec_is_no_session():
    from repro.client.session import SessionSpec

    result = run_experiment(small_spec(session=SessionSpec(),
                                       txns_per_client=2))
    assert "client.programs" not in result.registry.snapshot()["counters"]
