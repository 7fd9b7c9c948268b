"""Commit cost in closed form, per failure-free transaction.

Gray & Lamport (*Consensus on Transaction Commit*) state a commit's
cost as closed forms in the number of resource managers.  Here, for one
transaction with N participants, A acceptors (the coordinator's view),
a majority M = floor(A/2) + 1 of them, and e = 1 when the coordinator
is itself a participant, else 0:

* **2PC:** ``prepare``, ``prepare-reply`` and ``release`` to each remote
  participant, 3(N - e) messages; one forced ``prepare`` per
  participant plus the forced decision, N + 1 forced writes.
* **Paxos Commit:** N - e ``prepare`` and N - e ``release``; each RM
  sends its ballot-0 vote to the other M - 1 acceptors of its fast set
  (the leader, itself, then the lowest others), N(M - 1)
  ``px-accept``.  The RM's own acceptor accepts under the prepare
  record's force and is counted off the 2a, so each instance costs M - 1
  acceptor forces, N·M + 1 forced writes in all, and an RM's own
  instance never travels in a ``px-accepted``.  An acceptor answers
  every instance it accepted in one instant in one ``px-accepted``:
  with the forced writes free that is one per instance the leader does
  not hold itself, (N - e)(M - 2) + e(M - 1); priced, at most two per
  acceptor (see :func:`px_accepted_priced`), and each such answer and
  the leader's one batch of remote votes is one forced record.

Each case runs one transaction at processor 1 on a settled cluster and
counts the messages it sends by kind and the forced writes it makes.
"""

from collections import Counter

import pytest

from repro import Cluster, ProtocolConfig

COMMIT_KINDS = ("prepare", "prepare-reply", "release", "px-accept",
                "px-accepted", "px-p1", "px-p2", "txn-status")


def run_one_commit(backend: str, processors: int, writes, sync: float):
    """Counts of one transaction writing object i on ``writes[i]``."""
    config = ProtocolConfig(delta=1.0, storage_sync_cost=sync,
                            commit_backend=backend)
    cluster = Cluster(processors=processors, seed=1, config=config)
    for i, holders in enumerate(writes):
        cluster.place(f"o{i}", holders=holders, initial=0)
    cluster.start()
    cluster.run(until=5.0)
    sent = []
    cluster.network.tap = sent.append
    store = cluster.registry.sources["storage"]
    forced = store.forced_syncs

    def body(txn):
        for i in range(len(writes)):
            yield from txn.write(f"o{i}", 1)
        return 1

    outcome = cluster.submit(1, body)
    cluster.run(until=cluster.sim.now + 40.0)
    assert outcome.value == (True, 1)
    kinds = Counter(m.kind for m in sent if m.kind in COMMIT_KINDS)
    return kinds, store.forced_syncs - forced


def fast_set(acceptors: int, rm: int) -> set:
    """The acceptors ``rm`` sends its ballot-0 vote to: the leader
    (processor 1), ``rm`` itself, then the lowest-numbered others until
    there is a majority of the ``acceptors`` processors."""
    chosen = {1, rm}
    others = [a for a in range(2, acceptors + 1) if a != rm]
    return chosen | set(others[:acceptors // 2 + 1 - len(chosen)])


def px_accepted_priced(acceptors: int, rms) -> int:
    """``px-accepted`` messages when forced writes are priced.

    The leader (processor 1) tallies its own acceptor's answers in
    place.  Every other acceptor takes 2a messages in at most two
    instants: the coordinator's own vote lands one sync and one delta
    after the prepare leaves, every other remote RM's vote one delta
    later.  The acceptor's own vote is never among them."""
    count = 0
    for acceptor in range(2, acceptors + 1):
        first = 1 in rms and acceptor in fast_set(acceptors, 1)
        second = any(acceptor in fast_set(acceptors, rm)
                     for rm in set(rms) - {1, acceptor})
        count += first + second
    return count


CASES = [
    # (processors, holders of each written object)
    (5, [[1, 2, 3]]),
    (5, [[2, 3, 4]]),
    (5, [[1, 2, 3, 4, 5]]),
    (5, [[1]]),
    (5, [[2]]),
    (5, [[1, 2]]),
    (5, [[2, 3], [3, 4]]),
    (3, [[1, 2, 3]]),
    (3, [[2, 3]]),
]

#: Paxos Commit's forced writes per case of CASES when forces are
#: priced: N prepares, one decision and one per acceptor batch
PRICED_FORCED = [9, 7, 11, 4, 4, 7, 7, 6, 4]


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("processors, writes", CASES)
def test_two_phase_commit_costs_its_closed_form(processors, writes, sync):
    kinds, forced = run_one_commit("2pc", processors, writes, sync)
    rms = set().union(*writes)
    remote = len(rms) - int(1 in rms)  # N - e: 3(N - e) messages
    assert kinds == Counter({"prepare": remote, "prepare-reply": remote,
                             "release": remote}) - Counter()
    assert forced == len(rms) + 1


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("processors, writes", CASES)
def test_paxos_commit_costs_its_closed_form(processors, writes, sync):
    kinds, forced = run_one_commit("paxos", processors, writes, sync)
    rms = set().union(*writes)
    n, e, a = len(rms), int(1 in rms), processors
    m = a // 2 + 1
    if sync == 0:
        accepted = (n - e) * (m - 2) + e * (m - 1)
        assert forced == n * m + 1
    else:
        accepted = px_accepted_priced(a, rms)
        assert accepted <= min((n - e) * (m - 2) + e * (m - 1), 2 * (a - 1))
        # the leader's acceptor forces one batch of the remote RMs' votes
        assert forced == n + 1 + accepted + bool(rms - {1})
        assert forced == PRICED_FORCED[CASES.index((processors, writes))]
        assert forced <= n * m + 1
    assert kinds == Counter({"prepare": n - e, "release": n - e,
                             "px-accept": n * (m - 1),
                             "px-accepted": accepted}) - Counter()
