"""A run pauses Python's cyclic collector, and builds no reference cycles.

``Simulator.run`` disables the collector for its dispatch loop when it
was enabled on entry and, on every exit path, runs one young-generation
pass and enables it again.  That is sound only because a run leaves no
cyclic garbage behind; the last tests pin that on runs that load every
layer: the four ledger workloads, a hunter campaign with crashes and a
partition, a quorum baseline under crashes and an online reshard.
"""

import gc
from collections import Counter

import pytest

from ledger import workloads
from repro.cluster import Cluster
from repro.net import FaultAction
from repro.shard import ReshardAction
from repro.sim import EmptySchedule, ProcessCrashed, Simulator, StopSimulation
from repro.workload import ExperimentSpec, run_experiment
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import WorkloadSpec
from repro.workload.hunt import HuntConfig, campaign_spec, plan_campaigns


@pytest.fixture
def collector():
    """The collector enabled for the test, and as found afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _noop(_arg):
    pass


def _horizon(sim):
    sim.call(1.0, _noop)
    sim.call(5.0, _noop)
    assert sim.run(until=2.0) is None


def _empty_queue(sim):
    sim.call(1.0, _noop)
    assert sim.run() is None


def _until_event(sim):
    event = sim.event()
    sim.call(1.0, lambda _: event.succeed(7))
    assert sim.run(until=event) == 7


def _stop_simulation(sim):
    def stop(_arg):
        raise StopSimulation("early")

    sim.call(1.0, stop)
    assert sim.run() == "early"


def _process_crashed(sim):
    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.process(crasher())
    with pytest.raises(ProcessCrashed):
        sim.run()


def _empty_schedule(sim):
    sim.call(1.0, _noop)
    with pytest.raises(EmptySchedule):
        sim.run(until=sim.event())


def _failing_entry(sim):
    def fail(_arg):
        raise ValueError("boom")

    sim.call(1.0, fail)
    with pytest.raises(ValueError):
        sim.run()


#: every way out of ``Simulator.run``, each after a dispatch
EXITS = {
    "horizon": _horizon,
    "empty-queue": _empty_queue,
    "until-event": _until_event,
    "stop-simulation": _stop_simulation,
    "process-crashed": _process_crashed,
    "empty-schedule": _empty_schedule,
    "failing-entry": _failing_entry,
}


def _observe(exit_path):
    """Run ``exit_path`` on a fresh simulator; return what happened
    from its first dispatch on: ``("dispatch", gc.isenabled())`` per
    dispatch and ``("collect", generation)`` per collection."""
    sim = Simulator()
    log = []
    sim.trace_hook = lambda _time, _target: log.append(
        ("dispatch", gc.isenabled()))

    def on_collect(phase, info):
        if phase == "start" and log:
            log.append(("collect", info["generation"]))

    gc.callbacks.append(on_collect)
    try:
        exit_path(sim)
    finally:
        gc.callbacks.remove(on_collect)
    return log


@pytest.mark.parametrize("exit_path", EXITS.values(), ids=EXITS)
def test_the_collector_is_paused_for_the_run_and_restored(collector,
                                                          exit_path):
    log = _observe(exit_path)
    assert gc.isenabled()
    # paused at every dispatch; the one collection is the exit pass,
    # young generation only
    assert set(log[:-1]) == {("dispatch", False)}
    assert log[-1] == ("collect", 0)


@pytest.mark.parametrize("exit_path", EXITS.values(), ids=EXITS)
def test_a_collector_the_caller_disabled_stays_disabled(collector,
                                                        exit_path):
    gc.disable()
    log = _observe(exit_path)
    assert not gc.isenabled()
    assert set(log) == {("dispatch", False)}


def _crash_and_partition_campaign():
    """The first campaign of hunt seed 0 that crashes a processor and
    partitions the cluster."""
    cfg = HuntConfig(campaigns=20, seed=0)
    for seed, actions in plan_campaigns(cfg):
        if {"crash", "partition"} <= {action.kind for action in actions}:
            return campaign_spec(cfg, actions, seed)
    raise AssertionError("no campaign both crashes and partitions")


def _quorum_under_crashes():
    return ExperimentSpec(
        protocol="quorum", processors=5, objects=8, seed=3, duration=300,
        workload=WorkloadSpec(read_fraction=0.8, mean_interarrival=4.0),
        retries=1, check=True,
        failures=ScheduledNemesis((
            FaultAction(60.0, "partition", ((1, 2, 3), (4, 5)), 80.0),
            FaultAction(90.0, "crash", (2,), 3.0),
            FaultAction(200.0, "crash", (4,), 30.0))))


def _reshard():
    return ExperimentSpec(
        processors=8, objects=20, copies_per_object=3, placement="hash-ring",
        directory="cached", seed=3, duration=140.0, check=True, audit=True,
        reshard=(ReshardAction(time=40.0, add=(7, 8)),))


#: runs that load every layer; fault-churn at a quarter of its length,
#: since its smoke scale ends before the first fault
RUNS = {
    "steady-rw": lambda: workloads.build("steady-rw", 1, 1 / 20),
    "read-lease": lambda: workloads.build("read-lease", 1, 1 / 20),
    "shard-durable": lambda: workloads.build("shard-durable", 1, 1 / 20),
    "fault-churn": lambda: workloads.build("fault-churn", 2, 1 / 4),
    "hunt-campaign": _crash_and_partition_campaign,
    "quorum-crashes": _quorum_under_crashes,
    "reshard": _reshard,
}


@pytest.mark.parametrize("build", RUNS.values(), ids=RUNS)
def test_a_run_leaves_no_cyclic_garbage(collector, monkeypatch, build):
    """Collect before the first dispatch; then every object any
    collection finds during the run, or in one full collection right
    after it (the cluster still referenced), is a leaked cycle."""
    found = []
    cluster_run = Cluster.run

    def audited_run(cluster, until=None):
        gc.collect()
        freed = []

        def on_collect(phase, info):
            if phase == "stop":
                freed.append(info["collected"])

        gc.callbacks.append(on_collect)
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep the garbage to name it
        try:
            cluster_run(cluster, until)
            gc.collect()
        finally:
            gc.set_debug(0)
            gc.callbacks.remove(on_collect)
        found.append((sum(freed),
                      Counter(type(obj).__name__ for obj in gc.garbage)))
        gc.garbage.clear()

    monkeypatch.setattr(Cluster, "run", audited_run)
    result = run_experiment(build())
    assert result.committed > 0
    assert found and all(leak == (0, Counter()) for leak in found), found
