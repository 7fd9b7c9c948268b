"""Paxos Commit (Gray & Lamport): non-blocking atomic commit.

The headline property 2PC cannot offer: with the coordinator crashed
between the prepare round and the decide fan-out — and *never*
recovering — the prepared participants still reach the transaction's
outcome, because every vote lives in a Paxos instance accepted at a
majority of its 2F+1 acceptors and any recovery leader reaching a
majority of them can finish the protocol.
"""

from math import inf

import pytest

from repro import Cluster, FaultAction, ProtocolConfig, apply_schedule
from repro.commit import COMMIT_BACKENDS, make_commit
from repro.commit.paxos import BALLOT_STRIDE
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment


def test_backend_registry_and_factory_validation():
    assert set(COMMIT_BACKENDS) == {"2pc", "paxos"}
    with pytest.raises(ValueError, match="three-phase"):
        make_commit("three-phase", host=None)


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="commit backend"):
        ProtocolConfig(commit_backend="bogus")


def test_paxos_happy_path_commits_and_stays_1sr():
    """Failure-free runs: same outcomes and correctness as 2PC, paid
    for with the extra acceptor round."""
    result = run_experiment(ExperimentSpec(
        processors=4, objects=3, seed=11, duration=200.0,
        workload=WorkloadSpec(read_fraction=0.5, mean_interarrival=12.0),
        commit_backend="paxos", retries=2, check=True, audit=True,
    ))
    assert result.committed > 0
    assert result.one_copy_ok is True
    assert result.audit_violations == ()


def chosen_everywhere(cluster, txn) -> bool:
    """Whether every processor's instance of ``txn`` is accepted at a
    majority of the processors (each is an RM and an acceptor here)."""
    def accepted(pid, rm):
        value = cluster.processor(pid).store.cell(f"px:{txn}:{rm}")
        return value is not None and value[1] is not None

    pids = cluster.pids
    return all(sum(accepted(pid, rm) for pid in pids) > len(pids) // 2
               for rm in pids)


def test_prepared_participants_decide_without_coordinator():
    """Coordinator crashes after the prepare round, before any decide
    leaves, and never comes back.  Under 2PC the participants would
    block forever; under Paxos Commit the surviving majority of
    acceptors lets recovery leaders finish the transaction."""
    config = ProtocolConfig(delta=4.0, storage_sync_cost=3.0,
                            commit_backend="paxos")
    cluster = Cluster(processors=3, seed=3, config=config, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    outcome = cluster.write_once(1, "x", 7)
    txn = (1, 1)
    # park once every prepared vote is chosen: each participant's
    # ballot-0 accept has landed at a majority of the three acceptors,
    # but the coordinator — whose px-accepted confirmations take one
    # more delta — has not decided yet
    while not chosen_everywhere(cluster, txn):
        cluster.sim.run(until=cluster.sim.now + 0.25)
        assert cluster.sim.now < 120.0, "votes never replicated"
    assert cluster.processor(1).store.decision_of(txn) is None
    assert txn in cluster.protocol(2).commit.in_doubt
    apply_schedule(cluster.injector, [
        FaultAction(cluster.sim.now + 0.1, "crash", (1,), inf)])
    cluster.run(until=cluster.sim.now + 400.0)  # p1 stays down

    for pid in (2, 3):
        commit = cluster.protocol(pid).commit
        assert txn not in commit.in_doubt, "participant left blocked"
        assert cluster.processor(pid).store.peek("x")[0] == 7
    # one dwell per participant: the cluster counts into one list
    assert len(cluster.metrics.in_doubt_dwell) == 2, "dwell not recorded"
    assert cluster.history.txns[txn].status == "committed"
    # the dead coordinator's client saw the outcome ceded, not a commit
    committed, _reason = outcome.value
    assert committed is False
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


def test_paxos_dwell_is_bounded_not_open_ended():
    """The blocking window above closes within a few timeout rounds —
    it does not scale with how long the coordinator stays dead."""
    config = ProtocolConfig(delta=4.0, storage_sync_cost=3.0,
                            commit_backend="paxos")
    cluster = Cluster(processors=3, seed=3, config=config)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    cluster.write_once(1, "x", 7)
    txn = (1, 1)
    while txn not in cluster.protocol(2).commit.in_doubt:
        cluster.sim.run(until=cluster.sim.now + 0.25)
        assert cluster.sim.now < 120.0
    apply_schedule(cluster.injector, [
        FaultAction(cluster.sim.now + 0.1, "crash", (1,), inf)])
    cluster.run(until=cluster.sim.now + 2000.0)
    assert cluster.metrics.in_doubt_dwell, "dwell not recorded"
    for dwell in cluster.metrics.in_doubt_dwell:
        assert dwell <= 6 * cluster.config.access_timeout, (
            f"dwelled {dwell}: resolution waited on recovery"
        )


def one_write(processors: int, sync: float, coordinator: int = 1):
    """One failure-free write at ``coordinator`` to a copy on every processor;
    returns its outcome, ``(time, message, instances)`` per message it
    sent, ``instances`` being what a 2b batch carried as it left, and
    the cluster."""
    config = ProtocolConfig(delta=1.0, storage_sync_cost=sync,
                            commit_backend="paxos")
    cluster = Cluster(processors=processors, seed=1, config=config)
    cluster.place("x", holders=cluster.pids, initial=0)
    cluster.start()
    cluster.run(until=5.0)
    sent = []
    cluster.network.tap = lambda m: sent.append(
        (cluster.sim.now, m, [accept[1] for accept in m.payload.get("accepts", ())]))
    outcome = cluster.write_once(coordinator, "x", 7)
    cluster.run(until=60.0)
    return outcome.value, sent, cluster


@pytest.mark.parametrize("processors, release", [(5, 10.0), (2, 9.0)])
def test_free_forces_decide_on_the_fast_path(processors, release):
    """The hunter's Paxos setting (forced writes free): every 2b leaves
    in the call that forced it, so the coordinator collects a majority
    of ballot-0 accepts per instance and no recovery ballot runs.  A
    lost 2b would only delay the commit through px-p1/px-p2, which is
    why the instants are pinned: the prepare leaves at 7, the votes
    reach the acceptors at 8 and 9 and the leader at 10, and the
    release leaves at 10.  On two processors p2 is the only other
    acceptor: it accepts its own vote at 8 and its 2a, which says so,
    reaches the leader at 9, so the release leaves at 9; the majority
    there is both acceptors, so the leader's own 2b, tallied in place,
    is needed."""
    outcome, sent, _ = one_write(processors, sync=0.0)
    assert outcome == (True, 7)
    remote = processors - 1
    assert not {m.kind for _, m, _ in sent} & {"px-p1", "px-p2"}
    assert [t for t, m, _ in sent if m.kind == "prepare"] == [7.0] * remote
    assert [t for t, m, _ in sent if m.kind == "release"] == [release] * remote
    # free forces never batch: one px-accepted per instance and
    # fast-set acceptor that is neither the leader nor the instance's
    # RM, carrying that instance as it leaves: (N - 1)(M - 2) for the
    # remote RMs' instances, M - 1 for the coordinator's
    accepted = [rms for _, m, rms in sent if m.kind == "px-accepted"]
    majority = processors // 2 + 1
    assert len(accepted) == (processors - 1) * (majority - 2) + majority - 1
    assert all(len(rms) == 1 for rms in accepted)


@pytest.mark.parametrize("processors, release, vote",
                         [(2, 10.5, 7.5), (3, 10.5, 7.5), (5, 11.5, 8.5)])
def test_a_priced_leader_vote_moves_no_release(processors, release, vote):
    """Priced forces: the prepare leaves at 7 and the release leaves
    where it did before the coordinator's own vote waited for its
    remote RMs' votes.  With a fast set of three (five processors) the
    coordinator's 2a leaves with theirs, one delta after its force
    lands at 7.5, and its instance is chosen at 11 with theirs; with a
    fast set of two there is no slack, so it leaves as the force lands."""
    outcome, sent, _ = one_write(processors, sync=0.5)
    assert outcome == (True, 7)
    remote = processors - 1
    assert not {m.kind for _, m, _ in sent} & {"px-p1", "px-p2"}
    assert [t for t, m, _ in sent if m.kind == "prepare"] == [7.0] * remote
    assert {t for t, m, _ in sent if m.kind == "px-accept" and m.src == 1} == {vote}
    assert [t for t, m, _ in sent if m.kind == "release"] == [release] * remote


def test_one_instant_of_accepts_travels_in_one_message():
    """Priced forces on five processors, where p2 is in every RM's fast
    set: the votes of p3, p4 and p5 and the coordinator's reach it in
    one instant, 9.5 (the coordinator's 2a leaves last, one delta after
    its force), and leave in one message once its one force lands at
    10; its own vote rode its prepare force and is counted off its 2a."""
    outcome, sent, _ = one_write(5, sync=0.5)
    assert outcome == (True, 7)
    batches = [(t, rms) for t, m, rms in sent
               if m.kind == "px-accepted" and m.src == 2]
    assert batches == [(10.0, [3, 4, 5, 1])]
    assert not {m.kind for _, m, _ in sent} & {"px-p1", "px-p2"}


@pytest.mark.parametrize("leader", [1, 5])
def test_each_vote_goes_to_a_majority_including_the_leader(leader):
    """Priced forces on five processors: every RM sends its ballot-0
    vote to exactly M - 1 = 2 other acceptors, the leader among them
    (the leader's own vote is accepted in place) — also when the
    leader is not the lowest-numbered acceptor."""
    outcome, sent, _ = one_write(5, sync=0.5, coordinator=leader)
    assert outcome == (True, 7)
    targets = {}
    for _, m, _ in sent:
        if m.kind == "px-accept":
            assert m.payload["ballot"] == 0 and m.payload["rm"] == m.src
            targets.setdefault(m.src, []).append(m.dst)
    assert sorted(targets) == [1, 2, 3, 4, 5]
    for rm, dsts in targets.items():
        assert len(set(dsts)) == len(dsts) == 2
        assert (leader in dsts) == (rm != leader)


def test_a_silent_fast_set_acceptor_costs_a_recovery_ballot():
    """The fast set's price: a write on copies {1, 4, 5} of five, with
    p2 — in every RM's fast set, but no participant — crashed as the
    prepare leaves.  p4's and p5's instances are then accepted at two
    acceptors only, so the fast path stalls until a recovery ballot
    over the whole acceptor set (fixed at prepare time, p2 included)
    chooses them; the transaction commits, later, and stays correct."""
    config = ProtocolConfig(delta=1.0, commit_backend="paxos")
    cluster = Cluster(processors=5, seed=1, config=config, audit=True)
    cluster.place("x", holders=[1, 4, 5], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    sent = []
    cluster.network.tap = lambda m: sent.append((cluster.sim.now, m))
    apply_schedule(cluster.injector, [FaultAction(7.0, "crash", (2,), inf)])
    outcome = cluster.write_once(1, "x", 7)
    cluster.run(until=100.0)
    assert outcome.value == (True, 7)
    assert [t for t, m in sent if m.kind == "prepare"] == [7.0, 7.0]
    kinds = {m.kind for _, m in sent}
    assert {"px-p1", "px-p2"} <= kinds
    assert cluster.history.txns[(1, 1)].status == "committed"
    assert all(cluster.processor(pid).store.peek("x")[0] == 7 for pid in (1, 4, 5))
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


@pytest.mark.parametrize("sync", [0.0, 0.5])
@pytest.mark.parametrize("processors", [2, 3, 5])
def test_no_rm_answers_for_its_own_instance(processors, sync):
    """Co-location: a yes-voting RM's own acceptor accepts its vote
    under the prepare force, and the 2a says so, so the leader counts
    that acceptor off the 2a.  No px-accepted ever carries its sender's
    own instance, free forces or priced."""
    outcome, sent, _ = one_write(processors, sync)
    assert outcome == (True, 7)
    answers = [(m.src, rms) for _, m, rms in sent if m.kind == "px-accepted"]
    assert answers and all(src not in rms for src, rms in answers)
    assert all(m.payload["own"] for _, m, _ in sent if m.kind == "px-accept")


def test_a_refused_own_accept_is_not_counted():
    """p2's acceptor has promised a recovery ballot for p2's instance
    before the prepare arrives: it refuses p2's ballot-0 vote, and the
    2a says so.  The leader must not count p2's acceptor, so on three
    processors (fast set {1, 2}) the instance stalls at one accept
    until a recovery ballot (p1's, from the collection timeout) settles
    it; p3 promises with p1, the ballot picks the vote p1 accepted and
    the transaction commits everywhere."""
    config = ProtocolConfig(delta=1.0, storage_sync_cost=0.5,
                            commit_backend="paxos")
    cluster = Cluster(processors=3, seed=1, config=config, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)
    txn = (1, 1)
    # p3's first ballot
    cluster.processor(2).store.write_cell(f"px:{txn}:2", (BALLOT_STRIDE + 3, None, None))
    leader = cluster.protocol(1).commit
    tallied = []
    note = leader._note_accepted

    def recording_note(acceptor, accepts):
        tallied.extend((acceptor, accept[1]) for accept in accepts)
        note(acceptor, accepts)

    leader._note_accepted = recording_note
    sent = []
    cluster.network.tap = sent.append
    outcome = cluster.write_once(1, "x", 7)
    cluster.run(until=100.0)
    votes = [m.payload for m in sent if m.kind == "px-accept" and m.src == 2]
    assert [(v["rm"], v["own"]) for v in votes] == [(2, False)]
    assert (2, 2) not in tallied and (1, 2) in tallied
    assert {"px-p1", "px-p2"} <= {m.kind for m in sent}
    assert outcome.value == (True, 7)
    assert cluster.history.txns[txn].status == "committed"
    assert all(cluster.processor(pid).store.peek("x")[0] == 7 for pid in cluster.pids)
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


def test_a_batch_is_one_forced_record_and_replays_whole():
    """Priced forces on five processors: p2 takes the votes of p3, p4,
    p5 and the coordinator in one instant.  That batch appends four
    cell records, only the first of them forced, and a rebuilt engine
    (crash replay) holds all four accepts."""
    outcome, _sent, cluster = one_write(5, sync=0.5)
    assert outcome == (True, 7)
    store = cluster.processor(2).store
    names = {f"px:{(1, 1)}:{rm}" for rm in (1, 3, 4, 5)}
    batch = [r for r in store.wal if r.kind == "cell" and r.cell in names]
    assert [r.forced for r in batch] == [True, False, False, False]
    assert len({r.lsn for r in batch}) == 4
    cells = store.rebuilt().snapshot().cells
    assert {name: cells[name] for name in names} == dict.fromkeys(names, (0, 0, "prepared"))
