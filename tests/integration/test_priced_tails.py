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
one timer event whether a process or a bare timer carries it.  (In the
``prepare-reply`` case the silent p2 makes the coordinator abort, and
an abort decision is not forced, so its fan-out waits no sync.)

A ``px-accepted`` carries every instance its acceptor accepted for one
leader in one instant, so the Paxos cases look for the instance inside
the batch.  Each RM sends its vote only to its fast set (the leader,
itself, then the lowest other acceptors), and its own acceptor's
accept rides its prepare force, so no batch holds the acceptor's own
vote.  On three processors with copies on p1 and p3, p2's batch holds
the coordinator's vote alone; on five with copies on p1, p3 and p4,
the coordinator's vote waits one prepare hop for p3's and p4's, the
crash hits p2's batch of all three and none leaves.

That wait is a sixth window: a Paxos leader that crashes inside it
must not send the vote it forgot, and a recovery ballot then decides
its transaction.
"""

from math import inf

import pytest

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule
from tests.mutants import leader_vote_on_bare_call

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


def build(backend="2pc", holders=(1, 2, 3), processors=3, audit=False, **costs):
    config = ProtocolConfig(delta=1.0, commit_backend=backend, **costs)
    cluster = Cluster(processors=processors, seed=1, config=config, audit=audit)
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
    # p2 accepts p3's, p4's and the coordinator's votes in one instant:
    # one batch
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
    (prepare_reply, 174),
    (px_accept, 216),
    (px_accepted, 191),
    (px_accepted_batch, 500),
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


def test_the_batch_case_crashes_a_batch_of_three():
    # the crash finds p3's, p4's and the coordinator's votes in one
    # batch and drops it: a batch is volatile, so none is left after
    # the run
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
    assert sorted(held) == [1, 3, 4]
    assert not commit._batches


def leader_vote(crash: float, recover: float):
    """p1 leads a write on p1, p3 and p4 of five (M = 3), so its own yes
    vote leaves 1.5 after its prepare record is written (the sync, then
    one prepare hop); p1 crashes ``crash`` into that wait and recovers
    at ``recover``.
    Returns the cluster, the messages sent and the transaction (filled
    when the vote is cast)."""
    cluster, sent = build("paxos", holders=(1, 3, 4), processors=5, audit=True,
                          storage_sync_cost=WINDOW)
    commit = cluster.protocol(1).commit
    cast_vote = commit._cast_vote
    armed = []

    def armed_cast_vote(txn, vote, meta):
        cast_vote(txn, vote, meta)
        if not armed and vote == "prepared":
            armed.append(txn)
            now = cluster.sim.now
            (undo,) = apply_schedule(cluster.injector, [
                FaultAction(now + crash, "crash", (1,), inf)])
            cluster.injector.at(now + recover, *undo)

    commit._cast_vote = armed_cast_vote
    cluster.write_once(1, "x", 7)
    return cluster, sent, armed


#: (crash, recover, outcome, dispatched).  Halfway through the wait, p1
#: is down when its prepares would land, so they are lost in flight:
#: only p1 ever votes, and its recovery ballot finds p3's and p4's
#: instances free and chooses aborted.  Halfway through the last sync,
#: p3 and p4 have voted: the recovered p1's ballot counts its own
#: acceptor, which holds p1's vote under its prepare force, and commits.
LEADER_CRASHES = [(0.75, 1.125, "aborted", 429), (1.25, 1.375, "committed", 487)]


@pytest.mark.parametrize("crash, recover, status, dispatched", LEADER_CRASHES)
def test_a_leader_crash_inside_its_vote_wait_sends_no_vote(crash, recover, status, dispatched):
    """No 2a of the leader's ever leaves: a recovery ballot decides the
    transaction, the same everywhere, with the auditor clean."""
    cluster, sent, armed = leader_vote(crash, recover)
    cluster.run(until=HORIZON)
    assert armed, "the leader never cast its vote"
    (txn,) = armed
    assert [label for _, label in cluster.injector.log][-2:] == ["crash(1)", "recover(1)"]
    leaked = [m for m in sent if m.kind == "px-accept" and m.src == 1]
    assert not leaked, "the crashed leader's forgotten vote left"
    assert {"px-p1", "px-p2"} <= {m.kind for m in sent}
    assert cluster.history.txns[txn].status == status
    value = 7 if status == "committed" else 0
    assert all(cluster.processor(pid).store.peek("x")[0] == value for pid in (1, 3, 4))
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.sim.dispatched == dispatched


@pytest.mark.parametrize("crash, recover, status, dispatched", LEADER_CRASHES)
def test_the_leader_vote_on_bare_call_mutant_is_convicted(crash, recover, status, dispatched):
    with leader_vote_on_bare_call(), pytest.raises(AssertionError, match="forgotten vote"):
        test_a_leader_crash_inside_its_vote_wait_sends_no_vote(crash, recover, status, dispatched)
