"""Unit tests for the trace analyzer, on synthetic and real traces."""

from repro.obs.analyze import TraceAnalyzer, vpid_key
from repro.obs.events import TraceEvent


def E(time, etype, pid=None, **fields):
    return TraceEvent(time, etype, pid, fields)


def test_vpid_key_orders_like_the_protocol():
    assert vpid_key("vp(1,2)") == (1, 2)
    assert vpid_key("vp(2,1)") > vpid_key("vp(1,5)")
    assert vpid_key("garbage") > vpid_key("vp(999,999)")


def test_view_timeline_reconstruction():
    events = [
        E(1.0, "vp.invite", 1, vpid="vp(2,1)", invited=[2, 3]),
        E(1.5, "vp.accept", 2, vpid="vp(2,1)", initiator=1),
        E(2.0, "vp.accept-recv", 1, vpid="vp(2,1)", acceptor=2),
        E(3.0, "vp.commit", 1, vpid="vp(2,1)", view=[1, 2]),
        E(3.0, "vp.join", 1, vpid="vp(2,1)", view=[1, 2]),
        E(4.0, "vp.join", 2, vpid="vp(2,1)", view=[1, 2]),
        E(5.0, "recover.object", 2, vpid="vp(2,1)", obj="x", units=3),
    ]
    views = TraceAnalyzer(events).view_timelines()
    record = views["vp(2,1)"]
    assert record.initiator == 1
    assert record.invited_at == 1.0
    assert record.accepts == [(1.5, 2)]
    assert record.committed_at == 3.0
    assert record.view == [1, 2]
    assert record.joins == {1: 3.0, 2: 4.0}
    assert record.last_join == 4.0
    assert record.recovery_done == 5.0
    assert not record.abandoned


def test_critical_path_segments():
    events = [
        E(1.0, "vp.invite", 1, vpid="vp(2,1)"),
        E(1.5, "vp.accept", 2, vpid="vp(2,1)"),
        E(3.0, "vp.commit", 1, vpid="vp(2,1)", view=[1, 2]),
        E(4.0, "vp.join", 2, vpid="vp(2,1)", view=[1, 2]),
        E(5.5, "recover.object", 2, vpid="vp(2,1)", obj="x"),
    ]
    path = TraceAnalyzer(events).critical_path("vp(2,1)")
    assert [segment[0] for segment in path] == [
        "invite->last-accept", "accepts->commit", "commit->last-join",
        "join->recovery-done",
    ]
    assert path[-1] == ("join->recovery-done", 4.0, 5.5)


def test_abandoned_view():
    events = [
        E(1.0, "vp.invite", 1, vpid="vp(2,1)"),
        E(3.0, "vp.abandon", 1, vpid="vp(2,1)", superseded_by="vp(2,2)"),
    ]
    views = TraceAnalyzer(events).view_timelines()
    assert views["vp(2,1)"].abandoned
    assert not views["vp(2,1)"].formed


def test_message_breakdown():
    events = [
        E(1.0, "msg.send", 1, dst=2, kind="probe", seq=1),
        E(2.0, "msg.recv", 2, src=1, kind="probe", seq=1, latency=1.0),
        E(3.0, "msg.send", 1, dst=3, kind="probe", seq=2),
        E(3.0, "msg.drop", 3, src=1, kind="probe", seq=2, reason="no-edge"),
        E(4.0, "msg.send", 2, dst=1, kind="read", seq=3),
    ]
    table = TraceAnalyzer(events).message_breakdown()
    assert table["probe"] == {"sent": 2, "delivered": 1, "dropped": 1}
    assert table["read"] == {"sent": 1, "delivered": 0, "dropped": 0}


def test_lock_wait_distribution_skips_drops():
    events = [
        E(1.0, "lock.wait", 1, obj="x", txn="(1, 1)", mode="X"),
        E(4.0, "lock.grant", 1, obj="x", txn="(1, 1)", mode="X"),
        E(2.0, "lock.wait", 2, obj="y", txn="(2, 1)", mode="S"),
        E(9.0, "lock.drop", 2, obj="y", txn="(2, 1)", mode="S"),
    ]
    waits = TraceAnalyzer(events).lock_waits()
    assert waits["count"] == 1
    assert waits["p50"] == 3.0


def test_txn_outcomes():
    events = [
        E(1.0, "txn.begin", 1, txn="(1, 1)"),
        E(5.0, "txn.commit", 1, txn="(1, 1)"),
        E(2.0, "txn.begin", 2, txn="(2, 1)"),
        E(6.0, "txn.abort", 2, txn="(2, 1)", reason="read 'x': timeout"),
    ]
    outcome = TraceAnalyzer(events).txn_outcomes()
    assert outcome["committed"] == 1
    assert outcome["aborted"] == 1
    assert outcome["abort_reasons"] == {"read 'x'": 1}
    assert outcome["latency"]["count"] == 1
    assert outcome["latency"]["mean"] == 4.0


def test_analyzer_on_real_example2_trace():
    """Acceptance criterion: the analyzer reconstructs a per-view
    timeline from an actual Example 2 run."""
    from repro.workload.scenarios import run_example2_vp

    outcome = run_example2_vp(seed=0, trace=True)
    analyzer = TraceAnalyzer(outcome.cluster.tracer.events)
    views = analyzer.view_timelines()
    formed = [v for v in views.values() if v.formed and v.committed_at]
    assert formed, "some partition must fully form in Example 2"
    for record in formed:
        path = analyzer.critical_path(record.vpid)
        assert path, f"{record.vpid} formed but has no critical path"
    counts = analyzer.counts()
    assert counts.get("vp.invite", 0) > 0
    assert counts.get("vp.commit", 0) > 0
    assert counts.get("msg.send", 0) > 0
    assert counts.get("txn.commit", 0) + counts.get("txn.abort", 0) > 0
    report = analyzer.render()
    assert "view formations" in report
    summary = analyzer.summary()
    assert summary["events"] == len(outcome.cluster.tracer.events)
