"""The Fig. 12 server (``ReplicaControlProtocol._serve_read`` /
``_serve_write`` under ``AccessMixin``'s rules).

One refusal predicate, ``_refusal``, judges a physical access before CC
admission and again only if the access waited.  The write guards (the
reshard fence and the poisoned-txn refusal) are judged before the lock,
so a refused write takes no lock it would only have to give back.  A
wait across which the placement flips must end in a refusal, never in a
served access (the partition arm of that re-check is pinned by
``test_vp_tasks.py::test_refusal_does_not_beat_a_same_instant_invitation``).
"""

import pytest

from repro import Cluster, CopyOrder
from repro.core.access import AccessMixin
from repro.protocols.base import REJECT_POISONED, REJECT_STALE_PLACEMENT
from tests.node.calls import ask

HOLDER = ("holder", 1)  # a transaction that holds x's X lock at p1
TXN = (2, 99)


def make_cluster():
    cluster = Cluster(processors=3, seed=0)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    return cluster


def count_refusals(monkeypatch):
    """Record ``(server pid, write)`` for every ``_refusal`` call."""
    calls = []
    judge = AccessMixin._refusal

    def counting(self, obj, vpid, txn, payload, write):
        calls.append((self.pid, write))
        return judge(self, obj, vpid, txn, payload, write)

    monkeypatch.setattr(AccessMixin, "_refusal", counting)
    return calls


def access_p1(cluster, kind):
    """Send one ``kind`` request for x from p2 to p1 in p1's current
    partition; returns the list its reply payload will land in."""
    vpid = cluster.protocol(1).state.cur_id
    payload = {"obj": "x", "v": vpid, "txn": TXN, "ts": (0.0, 2, 99),
               "pe": 0}
    if kind == "write":
        payload.update(value=9, version=(TXN, 1))
    replies = []

    def client():
        replies.append((yield from ask(cluster.processor(2), 1, kind,
                                       payload, timeout=50.0)))

    cluster.sim.process(client())
    return replies


def test_an_access_that_never_waits_is_judged_once(monkeypatch):
    calls = count_refusals(monkeypatch)
    cluster = make_cluster()
    copies = CopyOrder(cluster.history)
    write = cluster.write_once(1, "x", 5)
    cluster.run(until=20.0)
    read = cluster.read_once(2, "x")
    cluster.run(until=40.0)
    assert write.value == (True, 5) and read.value == (True, 5)
    served = copies.ops
    assert len(served) == 4  # three copies written, one read
    assert sorted(calls) == sorted(
        (op.copy_pid, op.kind == "w") for op in served)


def test_poisoned_write_is_refused_without_taking_the_lock():
    cluster = make_cluster()
    cluster.protocol(1)._poisoned_txns.add(TXN)
    replies = access_p1(cluster, "write")
    cluster.run(until=10.0)
    assert replies == [{"ok": False, "reason": REJECT_POISONED}]
    assert cluster.protocol(1).cc.locks.holders("x") == {}


def test_write_on_pending_copies_is_refused_without_taking_the_lock():
    cluster = make_cluster()
    cluster.placement.begin_migration("x", [1, 2])
    replies = access_p1(cluster, "write")
    cluster.run(until=10.0)
    assert replies == [{"ok": False, "reason": REJECT_STALE_PLACEMENT}]
    assert cluster.protocol(1).cc.locks.holders("x") == {}


def queue_behind_holder(cluster, kind):
    """Queue a ``kind`` access for x at p1 behind HOLDER's X lock."""
    cc = cluster.protocol(1).cc
    assert cc.locks.acquire(HOLDER, "x", "X") is None
    replies = access_p1(cluster, kind)
    cluster.run(until=5.0)
    assert replies == [] and cc.locks.queue_length("x") == 1
    return replies


def test_a_queued_access_is_judged_again(monkeypatch):
    calls = count_refusals(monkeypatch)
    cluster = make_cluster()
    replies = queue_behind_holder(cluster, "write")
    cluster.protocol(1).cc.finish(HOLDER, "commit")
    cluster.run(until=10.0)
    assert replies == [{"ok": True}]
    assert calls == [(1, True), (1, True)]


@pytest.mark.parametrize("kind", ["read", "write"])
def test_access_queued_across_a_placement_flip_is_refused(kind):
    """A flip of x onto the same holders moves only its epoch: an access
    routed on the old epoch, granted its lock after the flip, is refused."""
    cluster = make_cluster()
    copies = CopyOrder(cluster.history)
    replies = queue_behind_holder(cluster, kind)
    cluster.placement.begin_migration("x", [1, 2, 3])
    cluster.placement.commit_migration("x")
    cluster.protocol(1).cc.finish(HOLDER, "abort")
    cluster.run(until=10.0)
    assert replies == [{"ok": False, "reason": REJECT_STALE_PLACEMENT}]
    assert copies.ops == []
