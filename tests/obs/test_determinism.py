"""Satellite: two same-seed runs serialize to byte-identical traces.

The replay-debugging guarantee: everything a trace records is derived
from simulated time and seeded randomness, never from process state
(object ids, global counters, wall clocks).  Serialization is canonical
(sorted keys, compact separators), so equality is literal bytes.
"""

from repro import Cluster, FaultAction, apply_schedule
from repro.obs.export import dumps_jsonl
from tests.net.routes import on_every_route


def _traced_run(seed: int) -> str:
    cluster = Cluster(processors=4, seed=seed, trace=True)
    for index, obj in enumerate(["x", "y"]):
        cluster.place(obj, holders=[1, 2, 3, 4], initial=index)
    cluster.start()
    apply_schedule(cluster.injector, [
        *on_every_route(cluster.pids, "grey", 0.05),
        FaultAction(10.0, "partition", ((1, 2), (3, 4)), 50.0)])
    cluster.write_once(1, "x", 1)
    cluster.read_once(3, "y")
    cluster.write_once(2, "y", 5)
    cluster.run(until=120.0)
    return dumps_jsonl(cluster.tracer.events)


def test_same_seed_traces_are_byte_identical():
    first = _traced_run(seed=7)
    second = _traced_run(seed=7)
    assert first, "traced run must record events"
    assert first == second


def test_different_seeds_diverge():
    # Sanity check that the guard above is not vacuous: the trace
    # actually depends on the seeded randomness.
    assert _traced_run(seed=7) != _traced_run(seed=8)


def _msg_id_stream(seed: int) -> list:
    cluster = Cluster(processors=3, seed=seed)
    ids = []
    cluster.network.tap = lambda message: ids.append(message.msg_id)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.write_once(1, "x", 1)
    cluster.read_once(2, "x")
    cluster.run(until=40.0)
    return ids


def test_msg_id_streams_repeat_across_back_to_back_runs():
    # Message ids are allocated per Network, so a second same-seed
    # cluster built later in the same process sees the identical id
    # stream — a process-global counter would keep climbing and break
    # replay debugging for anything that records ids.
    first = _msg_id_stream(seed=3)
    second = _msg_id_stream(seed=3)
    assert first, "the run must send messages"
    assert first == second
    assert first[0] == 1
