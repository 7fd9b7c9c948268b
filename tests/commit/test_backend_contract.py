"""The commit rules every backend keeps, for every protocol.

One 3-node write per case, with forced writes priced so a vote or a
decide that did not wait for its sync would show.  A network tap and a
WAL wiretap record one shared log of sends and journal appends, and
each yes voter's in-doubt state is sampled when its vote leaves and
when the decision applies there.  The rules:

* a yes voter journals one forced ``prepare`` record before its vote
  (``prepare-reply`` or ``px-accept``) leaves, and the coordinator,
  a participant here, one before the first ``release`` leaves;
* the decider journals one forced ``decision`` record before its first
  ``release`` leaves;
* ``decisions_retired`` rises by one per decided transaction;
* a yes voter is in doubt from its vote until the decision applies.

Dropping ``record_prepare`` from ``AtomicCommit._force_prepare`` fails
all three cases: every yes vote's force point, the coordinator's
included, has one site.
"""

from typing import Any, NamedTuple

import pytest

from repro import Cluster, ProtocolConfig
from repro.protocols import PROTOCOLS, protocol_factory

TXN = (1, 1)
SYNC = 0.5


class Send(NamedTuple):
    pid: int
    kind: str
    payload: Any
    in_doubt: bool
    time: float


class Journal(NamedTuple):
    pid: int
    record: Any
    time: float


class Apply(NamedTuple):
    pid: int
    in_doubt: bool


def run_one_write(protocol: str, backend: str):
    config = ProtocolConfig(delta=1.0, storage_sync_cost=SYNC,
                            commit_backend=backend)
    cluster = Cluster(processors=3, seed=1, config=config,
                      protocol=protocol_factory(protocol))
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    log = []

    def in_doubt(pid):
        return TXN in cluster.protocol(pid).commit.in_doubt

    def tap(message):
        log.append(Send(message.src, message.kind, message.payload,
                        in_doubt(message.src), cluster.sim.now))

    cluster.network.tap = tap
    for pid in cluster.pids:
        wal = cluster.processor(pid).store.wal
        host = cluster.protocol(pid)

        def journal(*fields, _pid=pid, _append=wal.append):
            record = _append(*fields)
            log.append(Journal(_pid, record, cluster.sim.now))
            return record

        def apply(txn, outcome, *, _pid=pid, _apply=host._apply_decision):
            log.append(Apply(_pid, in_doubt(_pid)))
            _apply(txn, outcome)

        wal.append = journal
        host._apply_decision = apply
    retired = cluster.metrics.decisions_retired
    outcome = cluster.write_once(1, "x", 7)
    cluster.run(until=60.0)
    assert outcome.value == (True, 7)
    return cluster, log, cluster.metrics.decisions_retired - retired


def is_yes_vote(entry) -> bool:
    if not isinstance(entry, Send):
        return False
    if entry.kind == "prepare-reply":
        return entry.payload["ok"]
    return entry.kind == "px-accept" and entry.payload["vote"] == "prepared"


def journalled(log, pid: int, kind: str) -> list:
    """Indexes of ``pid``'s forced ``kind`` records for TXN."""
    return [i for i, e in enumerate(log)
            if isinstance(e, Journal) and e.pid == pid and e.record.forced
            and e.record.kind == kind and e.record.txn == TXN]


def first(log, predicate) -> int:
    return next(i for i, entry in enumerate(log) if predicate(entry))


@pytest.mark.parametrize("protocol, backend", [
    ("virtual-partitions", "2pc"),
    ("virtual-partitions", "paxos"),
    ("rowa", "2pc"),
])
def test_every_backend_keeps_the_commit_rules(protocol, backend):
    cluster, log, retired = run_one_write(protocol, backend)
    voters = {e.pid for e in log if is_yes_vote(e)}
    assert {2, 3} <= voters
    for pid in sorted(voters):
        vote = first(log, lambda e: is_yes_vote(e) and e.pid == pid)
        prepares = journalled(log, pid, "prepare")
        assert len(prepares) == 1, f"p{pid} forced {len(prepares)} prepares"
        assert prepares[0] < vote, f"p{pid}'s vote left before its prepare"
        assert log[vote].time >= log[prepares[0]].time + SYNC
        assert log[vote].in_doubt, f"p{pid} voted yes, not in doubt"
        applies = [e for e in log if isinstance(e, Apply) and e.pid == pid]
        assert [e.in_doubt for e in applies] == [True], \
            f"p{pid} left doubt before its decision applied"
        assert TXN not in cluster.protocol(pid).commit.in_doubt
    release = first(log, lambda e: isinstance(e, Send)
                    and e.kind == "release")
    # the coordinator's own yes vote (local under 2PC) forces one too
    coordinator = journalled(log, 1, "prepare")
    assert len(coordinator) == 1, f"p1 forced {len(coordinator)} prepares"
    assert coordinator[0] < release, "a release left before p1's prepare"
    decisions = journalled(log, log[release].pid, "decision")
    assert len(decisions) == 1
    assert log[decisions[0]].record.outcome == "commit"
    assert decisions[0] < release, "a release left before the decision"
    assert log[release].time >= log[decisions[0]].time + SYNC
    assert retired == 1


@pytest.mark.parametrize("name", sorted(set(PROTOCOLS)
                                        - {"virtual-partitions"}))
def test_a_baseline_refuses_paxos_commit(name):
    # Paxos Commit's acceptors are the coordinator's view; a baseline
    # keeps none, so it commits through 2PC only
    config = ProtocolConfig(commit_backend="paxos")
    with pytest.raises(ValueError,
                       match=f"{name} cannot commit through 'paxos'"):
        Cluster(processors=3, config=config,
                protocol=protocol_factory(name))
