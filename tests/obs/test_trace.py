"""Unit tests for the tracer, event model, and JSONL export."""

import io
import json

from repro.core.ids import VpId
from repro.obs.events import TraceEvent, jsonable
from repro.obs.export import dumps_jsonl, event_line, read_jsonl, write_jsonl
from repro.obs.trace import Tracer
from repro.sim import Simulator


def test_jsonable_normalizes_sets_and_vpids():
    assert jsonable({3, 1, 2}) == [1, 2, 3]
    assert jsonable(VpId(2, 1)) == "vp(2,1)"
    assert jsonable((1, "a")) == [1, "a"]
    assert jsonable({"b": 1, "a": 2}) == {"a": 2, "b": 1}
    assert jsonable(None) is None


def test_event_roundtrip():
    event = TraceEvent(1.5, "vp.join", 2, {"vpid": "vp(2,1)", "view": [1, 2]})
    record = json.loads(event_line(event))
    back = TraceEvent.from_dict(record)
    assert back == event


def test_emit_records_at_sim_now():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("vp.join", pid=1, vpid="vp(1,1)")
    assert len(tracer) == 1
    event = tracer.events[0]
    assert event.time == sim.now
    assert event.etype == "vp.join"
    assert event.pid == 1


def test_by_type_and_clear():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("a.b", pid=1)
    tracer.emit("a.c", pid=1)
    assert [e.etype for e in tracer.by_type("a.b")] == ["a.b"]
    tracer.clear()
    assert len(tracer) == 0


def test_jsonl_roundtrip_via_file(tmp_path):
    events = [
        TraceEvent(0.0, "vp.depart", 1, {"vpid": "vp(0,1)"}),
        TraceEvent(1.0, "msg.send", 1, {"dst": 2, "kind": "probe"}),
    ]
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(events, path) == 2
    assert read_jsonl(path) == events


def test_jsonl_roundtrip_via_stream():
    events = [TraceEvent(0.5, "txn.begin", 3, {"txn": "(3, 1)"})]
    text = dumps_jsonl(events)
    assert text.endswith("\n")
    assert read_jsonl(io.StringIO(text)) == events


def test_cluster_trace_wiring():
    from repro import Cluster

    cluster = Cluster(processors=3, seed=1, trace=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.write_once(1, "x", 7)
    cluster.run(until=30.0)
    counts = cluster.tracer.counts()
    assert counts.get("msg.send", 0) > 0
    assert counts.get("msg.recv", 0) > 0
    assert counts.get("txn.commit", 0) >= 1
    assert counts.get("lock.grant", 0) >= 1


def test_cluster_write_trace(tmp_path):
    from repro import Cluster

    cluster = Cluster(processors=2, seed=1, trace=True)
    cluster.place("x", holders=[1, 2], initial=0)
    cluster.start()
    cluster.run(until=10.0)
    path = tmp_path / "t.jsonl"
    count = write_jsonl(cluster.tracer.events, path)
    assert count == len(cluster.tracer.events)
    assert len(read_jsonl(path)) == count


def test_untraced_cluster_has_no_tracer():
    from repro import Cluster

    cluster = Cluster(processors=2, seed=1)
    assert cluster.tracer is None
    assert cluster.network.tracer is None
