"""A crash inside a priced forced write's window stops the message that
write was guarding.

Five tails wait out a priced write and then send: 2PC's
``prepare-reply``, a Paxos RM's ``px-accept`` (its vote, under its
prepare force), a Paxos acceptor's ``px-accepted``, a copy's
``write-reply`` and Fig. 6's ``vp-accept``.  In each case the serving
processor crashes halfway through the window its request opened and
recovers before the window ends.  Nothing answering that request may
leave — the recovered processor has forgotten it — and the run
dispatches exactly the pinned number of kernel events: the wait costs
one timer event whether a process or a bare timer carries it.

A ``px-accepted`` carries every instance its acceptor accepted for one
leader in one instant, so the Paxos cases look for the instance inside
the batch.  Each RM sends its vote only to its fast set (the leader,
itself, then the lowest other acceptors), and its own acceptor's
accept rides its prepare force, so no batch holds the acceptor's own
vote.  On three processors with copies on p1 and p3, p2's batch holds
the coordinator's vote alone; on five with copies on p1, p3 and p4,
the crash hits p2's batch of p3's and p4's votes and neither leaves.
"""

from math import inf

import pytest

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule

WINDOW = 0.5
HORIZON = 60.0


def crash_inside_window(cluster, pid: int, kind: str, accepts):
    """Crash ``pid`` at half the window its first accepted ``kind``
    delivery opens, recover it at three quarters; returns that request
    (a list, filled at its delivery)."""
    processor = cluster.processor(pid)
    handler = processor._handlers[kind]
    armed = []

    def armed_handler(message):
        handler(message)
        if not armed and accepts(message):
            armed.append(message)
            now = cluster.sim.now
            (recover,) = apply_schedule(cluster.injector, [
                FaultAction(now + WINDOW / 2, "crash", (pid,), inf)])
            cluster.injector.at(now + 3 * WINDOW / 4, *recover)

    processor._handlers[kind] = armed_handler
    return armed


def build(backend="2pc", holders=(1, 2, 3), processors=3, **costs):
    config = ProtocolConfig(delta=1.0, commit_backend=backend, **costs)
    cluster = Cluster(processors=processors, seed=1, config=config)
    cluster.place("x", holders=list(holders), initial=0)
    cluster.start()
    sent = []
    cluster.network.tap = sent.append
    return cluster, sent


def prepare_reply():
    cluster, sent = build(storage_sync_cost=WINDOW)
    armed = crash_inside_window(cluster, 2, "prepare", lambda m: True)
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed, lambda m, request: (
        m.kind == "prepare-reply" and m.reply_to == request.msg_id)


def px_accept():
    # p2 crashes inside its prepare force: its vote never leaves
    cluster, sent = build("paxos", storage_sync_cost=WINDOW)
    armed = crash_inside_window(cluster, 2, "prepare", lambda m: True)
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed, lambda m, request: (
        m.kind == "px-accept" and m.payload["txn"] == request.payload["txn"])


def carries(message, txn, rms) -> bool:
    """Whether ``message`` is a 2b batch answering an instance of
    ``txn`` whose RM is in ``rms``."""
    return message.kind == "px-accepted" and any(
        accept[0] == txn and accept[1] in rms
        for accept in message.payload["accepts"])


def px_accepted():
    # p2 holds no copy: the coordinator's vote is its batch's only one
    cluster, sent = build("paxos", holders=(1, 3), storage_sync_cost=WINDOW)
    armed = crash_inside_window(cluster, 2, "px-accept",
                                lambda m: m.payload["rm"] == 1)
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed, lambda m, request: carries(
        m, request.payload["txn"], {request.payload["rm"]})


def px_accepted_batch():
    # p2 accepts p3's and p4's votes in one instant: one batch
    cluster, sent = build("paxos", holders=(1, 3, 4), processors=5,
                          storage_sync_cost=WINDOW)
    armed = crash_inside_window(cluster, 2, "px-accept",
                                lambda m: m.payload["rm"] == 3)
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed, lambda m, request: carries(
        m, request.payload["txn"], {3, 4})


def write_reply():
    cluster, sent = build(storage_append_cost=WINDOW)
    armed = crash_inside_window(cluster, 2, "write", lambda m: True)
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed, lambda m, request: (
        m.kind == "write-reply" and m.reply_to == request.msg_id)


def vp_accept():
    cluster, sent = build(storage_sync_cost=WINDOW)
    state = cluster.protocol(1).state
    armed = crash_inside_window(
        cluster, 1, "newvp", lambda m: state.max_id == m.payload["id"])
    # p1 and p2 both invite; p1 accepts p2's higher identifier
    apply_schedule(cluster.injector, [FaultAction(1.0, "crash", (3,), inf)])
    return cluster, sent, armed, lambda m, request: (
        m.kind == "vp-accept" and m.payload["id"] == request.payload["id"])


@pytest.mark.parametrize("case, dispatched", [
    (prepare_reply, 175),
    (px_accept, 216),
    (px_accepted, 191),
    (px_accepted_batch, 501),
    (write_reply, 147),
    (vp_accept, 76),
])
def test_a_crash_inside_the_window_sends_nothing(case, dispatched):
    cluster, sent, armed, answers = case()
    cluster.run(until=HORIZON)
    assert armed, "the priced request was never served"
    request = armed[0]
    server = request.dst
    assert [label for _, label in cluster.injector.log][-2:] == [
        f"crash({server})", f"recover({server})"]
    assert not [m for m in sent if m.src == server and answers(m, request)]
    assert cluster.sim.dispatched == dispatched


def test_the_batch_case_crashes_a_batch_of_two():
    # the crash finds p3's and p4's votes in one batch and drops it: a
    # batch is volatile, so none is left after the run
    cluster, _sent, _armed, _answers = px_accepted_batch()
    commit = cluster.protocol(2).commit
    held = []
    on_crash = commit.on_crash

    def recording_on_crash():
        held.extend(accept[1] for batch in commit._batches.values()
                    for accept in batch)
        on_crash()

    commit.on_crash = recording_on_crash
    cluster.run(until=HORIZON)
    assert sorted(held) == [3, 4]
    assert not commit._batches
