"""Commit cost in closed form, per failure-free transaction.

Gray & Lamport (*Consensus on Transaction Commit*) state a commit's
cost as closed forms in the number of resource managers.  Here, for one
transaction with N participants, A acceptors (the coordinator's view),
a majority M = floor(A/2) + 1 of them, and e = 1 when the coordinator
is itself a participant, else 0:

* **2PC:** ``prepare``, ``prepare-reply`` and ``release`` to each remote
  participant, 3(N - e) messages, committed or not.  Presumed abort
  forces only what recovery reads: a ``prepare`` record per writing
  share that voted yes (W of them) and the decision of a commit that
  wrote, W + [committed and W > 0] forced writes.  A read-only commit
  forces nothing; with no remote participant it journals nothing.
* **Paxos Commit:** N - e ``prepare`` and N - e ``release``; each RM
  sends its ballot-0 vote to the other M - 1 acceptors of its fast set
  (the leader, itself, then the lowest others), N(M - 1)
  ``px-accept``.  The RM's own acceptor accepts under the prepare
  record's force and is counted off the 2a, so each instance costs M - 1
  acceptor forces, N·M + 1 forced writes in all, and an RM's own
  instance never travels in a ``px-accepted``.  An acceptor answers
  every instance it accepted in one instant in one ``px-accepted``:
  with the forced writes free that is one per instance the leader does
  not hold itself, (N - e)(M - 2) + e(M - 1).  Priced, every vote
  reaches an acceptor in one instant (the leader's own waits one
  prepare hop for the remote ones, see :func:`px_accepted_priced`), so
  each acceptor forces once per transaction: the leader one batch of
  the remote RMs' votes, every other fast-set acceptor one answer.
  That is at most N + M + 1 forced writes, and exactly that when every
  fast-set acceptor holds an instance other than its own: Gray &
  Lamport's N + F + 1 (M = F + 1) plus the decision record.

Each case runs one transaction at processor 1 on a settled cluster and
counts the messages it sends by kind and the forced writes it makes.
"""

from collections import Counter
from typing import NamedTuple

import pytest

from repro import Cluster, ProtocolConfig
from repro.node.storage.engine import StorageEngine
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

COMMIT_KINDS = ("prepare", "prepare-reply", "release", "px-accept",
                "px-accepted", "px-p1", "px-p2", "txn-status")


class Cost(NamedTuple):
    #: commit messages sent, by kind
    kinds: Counter
    forced: int
    #: WAL records journalled, forced or not
    appended: int
    #: when the transaction ended, relative to its start
    latency: float


def run_one_commit(backend: str, processors: int, writes, sync: float,
                   reads=(), refuser=None) -> Cost:
    """Costs of one transaction writing object i on ``writes[i]`` and
    reading object r, held only by ``reads[r]``, there; ``refuser``
    votes no, so the transaction aborts after its prepare round."""
    config = ProtocolConfig(delta=1.0, storage_sync_cost=sync,
                            commit_backend=backend)
    cluster = Cluster(processors=processors, seed=1, config=config)
    for i, holders in enumerate(writes):
        cluster.place(f"o{i}", holders=holders, initial=0)
    for r, holder in enumerate(reads):
        cluster.place(f"r{r}", holders=[holder], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    if refuser is not None:
        cluster.protocol(refuser)._vote = lambda txn, payload: "refused"
    sent = []
    cluster.network.tap = sent.append
    store = cluster.registry.sources["storage"]
    forced, appended = store.forced_syncs, store.wal_appends

    def body(txn):
        for r in range(len(reads)):
            yield from txn.read(f"r{r}")
        for i in range(len(writes)):
            yield from txn.write(f"o{i}", 1)
        return 1

    start = cluster.sim.now
    outcome = cluster.submit(1, body)
    cluster.run(until=start + 40.0)
    assert outcome.value[0] is (refuser is None), outcome.value
    (record,) = cluster.history.txns.values()
    return Cost(Counter(m.kind for m in sent if m.kind in COMMIT_KINDS),
                store.forced_syncs - forced, store.wal_appends - appended,
                record.end_time - start)


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
    place.  Every other acceptor takes all of its 2a messages in one
    instant: a remote RM's vote leaves one delta and one sync after the
    prepare, and so does the coordinator's own when M >= 3 and a remote
    RM exists (with M = 2 no other acceptor shares an instance with
    it).  So each acceptor that holds any instance but its own answers
    once; its own vote is never among them."""
    return sum(any(acceptor in fast_set(acceptors, rm) for rm in set(rms) - {acceptor})
               for acceptor in range(2, acceptors + 1))


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
#: priced: N prepares, one decision and one per acceptor and transaction
PRICED_FORCED = [7, 7, 9, 4, 4, 6, 7, 6, 4]


#: (processors, holders of each written object, the holder of each
#: read object, the processor that votes no): presumed abort's cases
PRESUMED_ABORT_CASES = {
    "read-only": (5, [], [1, 2, 3], None),
    "read-only-remote": (5, [], [2, 3], None),
    "read-only-local": (5, [], [1], None),
    "one-share-reads": (5, [[1, 2]], [3], None),
    "coordinator-reads": (5, [[2, 3]], [1], None),
    # aborted after the prepare round: the refuser's share and the
    # decision force nothing
    "aborted": (5, [[1, 2, 3]], [], 3),
    "aborted-reader-refuses": (5, [[2]], [3], 3),
    "aborted-writer-refuses": (5, [[2, 3]], [1], 2),
}


def two_phase_closed_form(processors, writes, sync, reads=(), refuser=None):
    kinds, forced, *_ = run_one_commit("2pc", processors, writes, sync,
                                       reads, refuser)
    writers = set().union(set(), *writes)
    rms = writers | set(reads)
    remote = len(rms) - int(1 in rms)  # N - e: 3(N - e) messages
    assert kinds == Counter({"prepare": remote, "prepare-reply": remote,
                             "release": remote}) - Counter()
    voted_yes = writers - {refuser}  # W: writing shares that voted yes
    committed = refuser is None
    assert forced == len(voted_yes) + (committed and bool(voted_yes))


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("processors, writes", CASES)
def test_two_phase_commit_costs_its_closed_form(processors, writes, sync):
    two_phase_closed_form(processors, writes, sync)


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("case", PRESUMED_ABORT_CASES)
def test_presumed_abort_forces_only_what_recovery_reads(case, sync):
    processors, writes, reads, refuser = PRESUMED_ABORT_CASES[case]
    two_phase_closed_form(processors, writes, sync, reads, refuser)


@pytest.mark.parametrize("case", PRESUMED_ABORT_CASES)
def test_only_a_force_made_is_waited_for(case):
    """Priced, a transaction is later by one sync for a remote writing
    share's yes vote (the coordinator's own force overlaps the votes'
    round trip) and one for a commit decision that wrote; an abort's
    decision and a read-only share delay nothing."""
    processors, writes, reads, refuser = PRESUMED_ABORT_CASES[case]
    free, priced = (run_one_commit("2pc", processors, writes, sync, reads, refuser)
                    for sync in (0.0, 0.5))
    voted_yes = set().union(set(), *writes) - {refuser}
    syncs = bool(voted_yes - {1}) + (refuser is None and bool(voted_yes))
    assert priced.latency - free.latency == 0.5 * syncs


@pytest.mark.parametrize("sync", [0.0, 0.5])
def test_a_local_read_only_commit_journals_nothing(sync):
    # no remote share can ask for the outcome and no write hangs on it
    cost = run_one_commit("2pc", 3, [], sync, reads=[1])
    assert (cost.kinds, cost.forced, cost.appended) == (Counter(), 0, 0)


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("processors, writes", CASES)
def test_paxos_commit_costs_its_closed_form(processors, writes, sync):
    kinds, forced, *_ = run_one_commit("paxos", processors, writes, sync)
    rms = set().union(*writes)
    n, e, a = len(rms), int(1 in rms), processors
    m = a // 2 + 1
    if sync == 0:
        accepted = (n - e) * (m - 2) + e * (m - 1)
        assert forced == n * m + 1
    else:
        accepted = px_accepted_priced(a, rms)
        assert accepted <= min((n - e) * (m - 2) + e * (m - 1), m - 1)
        # the leader's acceptor forces one batch of the remote RMs' votes
        assert forced == n + 1 + accepted + bool(rms - {1})
        assert forced == PRICED_FORCED[CASES.index((processors, writes))]
        assert forced <= n + m + 1
    assert kinds == Counter({"prepare": n - e, "release": n - e,
                             "px-accept": n * (m - 1),
                             "px-accepted": accepted}) - Counter()


def test_each_acceptor_forces_once_per_transaction(monkeypatch):
    """Priced forces on five fully replicated processors (M = 3), many
    writing transactions from every coordinator, so every processor is
    an RM of each: every acceptor forces each transaction's ``px:``
    cells at most once, and every committed one costs M forces, one per
    fast-set acceptor: the leader's batch of the remote votes and one
    answer from each of the other M - 1."""
    forces = Counter()
    write_cell = StorageEngine.write_cell

    def counting_write_cell(engine, name, value, forced=True):
        if forced and name.startswith("px:"):
            forces[engine.pid, name[3:].rpartition(":")[0]] += 1
        write_cell(engine, name, value, forced)

    monkeypatch.setattr(StorageEngine, "write_cell", counting_write_cell)
    result = run_experiment(ExperimentSpec(
        processors=5, objects=8, seed=3, duration=150.0, commit_backend="paxos",
        config=ProtocolConfig(delta=1.0, storage_sync_cost=0.2),
        workload=WorkloadSpec(read_fraction=0.0, mean_interarrival=3.0)))
    committed = {str(record.txn) for record in result.cluster.history.committed()}
    assert len(committed) >= 20
    assert set(forces.values()) == {1}
    per_txn = Counter(txn for _acceptor, txn in forces)
    assert {per_txn[txn] for txn in committed} == {5 // 2 + 1}
