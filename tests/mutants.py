"""Mutants: deliberately broken protocol steps, kept out of ``src/``.

Each entry of :data:`MUTANTS` is a context manager that swaps one
method of the program for a broken copy while it is active.  A check
that convicts a mutant is load-bearing rather than vacuously green;
one that lets a mutant survive is missing an invariant.

Hunt under a mutant from the repo root (the patch lives in this
process, so the campaigns run here: ``--workers 1`` is forced; any
other argument is a ``repro hunt`` flag)::

    PYTHONPATH=src python -m tests.mutants unguarded_flip \\
        --processors 9 --objects 12 --copies 3 --placement hash-ring \\
        --reshard-at 30 --reshard-spares 2 --campaigns 10 --expect-failure
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import contextmanager

from repro import cli
from repro.analysis.history import History, PhysicalOp, ReshardFlip
from repro.commit.paxos import PaxosCommit
from repro.commit.two_phase import TwoPhaseCommit
from repro.shard.reshard import _FAILED, ReshardEngine


def _unguarded_cutover(self, processor, store, obj, old, target, adds, size):
    """No staging, no gates, no epoch bump.

    Installs land as orphan copies (nothing was staged), the entry is
    overwritten while transactions still route on it, and stale R4
    stamps go undetected: the auditor must convict this.
    """
    cluster = self.cluster
    placement = cluster.placement
    if adds:
        while True:
            floor = yield from self._install_all(
                processor, obj, adds, sorted(old), size)
            if floor is not _FAILED:
                break
            yield cluster.sim.timeout(cluster.config.delta)
    epoch_before = placement.epoch_of(obj)
    weights = placement._normalize(obj, target)
    placement._check_weights(obj, weights, cluster.pids)
    placement._placement[obj] = weights
    placement._flips += 1
    placement._accessible.clear()  # a changed placement's R1 sets are stale
    self.stats.flips += 1
    self._journal_current(store, obj, old, flipped=True)
    cluster.history.record(ReshardFlip(
        cluster.sim.now, processor.pid, obj, old, target, epoch_before,
        placement.epoch_of(obj), adds))


@contextmanager
def unguarded_flip():
    """The reshard cutover flips each placement in one unguarded step."""
    original = ReshardEngine._cutover
    ReshardEngine._cutover = _unguarded_cutover
    try:
        yield
    finally:
        ReshardEngine._cutover = original


@contextmanager
def install_order_last():
    """``History``'s install index keeps each version's latest physical
    installation instead of its first.  A hunt does not convict it (2PL
    makes first and latest agree on a run);
    ``test_graph_verdict_equals_the_reference_search`` does."""
    original = History.record
    later = itertools.count(1 << 40)  # past every first-install position

    def record(self, fact):
        original(self, fact)
        if type(fact) is PhysicalOp and fact.kind == "w":
            self.installed[(fact.obj, fact.version)] = next(later)

    History.record = record
    try:
        yield
    finally:
        History.record = original


def _vote_on_bare_call(self, txn, vote, meta):
    """``PaxosCommit._cast_vote`` with the leader's one-hop wait on a
    bare kernel call, which a crash does not cancel: a leader that
    crashes and recovers inside the wait still sends the 2a it forgot."""
    first = (meta["leader"], self.pid)
    majority = meta["majority"]
    fast = sorted(meta["acceptors"], key=lambda a: (a not in first, a))[:majority]
    own = (vote == "prepared" and self.pid in fast
           and self._accept_locally(txn, 0, {self.pid: vote}, forced=False))
    request = {"txn": txn, "rm": self.pid, "ballot": 0, "vote": vote,
               "leader": meta["leader"], "own": own}
    if vote != "prepared":
        self._propose(request, fast)
    elif (majority >= 3 and meta["leader"] == self.pid and self.config.storage_sync_cost
          and len(meta["participants"]) > 1):
        self.sim.call(self.config.delta + self.config.storage_sync_cost,
                      lambda _arg: self._propose(request, fast))
    else:
        self._after_sync(self._propose, request, fast)


@contextmanager
def leader_vote_on_bare_call():
    """A Paxos leader's yes vote waits its one prepare hop on a bare
    kernel call instead of a processor timer (the class of a priced
    wait a crash does not stop).  ``test_priced_tails.py``'s leader
    case convicts it."""
    original = PaxosCommit._cast_vote
    PaxosCommit._cast_vote = _vote_on_bare_call
    try:
        yield
    finally:
        PaxosCommit._cast_vote = original


@contextmanager
def writer_skips_prepare():
    """A 2PC share that holds a before-image is treated as read-only:
    its yes vote forces no prepare record and a crash forgets its doubt,
    undoing a write its coordinator may commit.
    ``tests/commit/test_presumed_abort.py``'s writing-share crash
    convicts it."""
    original = TwoPhaseCommit._wrote
    TwoPhaseCommit._wrote = lambda self, txn: False
    try:
        yield
    finally:
        TwoPhaseCommit._wrote = original


MUTANTS = {"install_order_last": install_order_last,
           "leader_vote_on_bare_call": leader_vote_on_bare_call,
           "unguarded_flip": unguarded_flip,
           "writer_skips_prepare": writer_skips_prepare}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.mutants",
        description="run `repro hunt` with one mutant patched in")
    parser.add_argument("mutant", choices=sorted(MUTANTS))
    args, hunt_args = parser.parse_known_args(argv)
    with MUTANTS[args.mutant]():
        return cli.main(["hunt", *hunt_args, "--workers", "1"])


if __name__ == "__main__":
    sys.exit(main())
