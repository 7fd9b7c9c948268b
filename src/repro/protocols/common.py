"""The shared skeleton of the baseline protocols.

The baselines differ in *which copies* a logical operation touches and
*when it is allowed* — not in how a physical access is served or how a
read-one / write-all walk visits its copies (both are
:class:`~repro.protocols.base.ReplicaControlProtocol`'s, under its
default rules: silence moves a read on, and starts nothing).
:class:`BaselineProtocol` owns what they share beyond that: the commit
vote and the nearest-first order of a copy set.  They commit through
:class:`~repro.commit.two_phase.TwoPhaseCommit` like the virtual
partitions protocol does by default, so every protocol pays identical
concurrency control *and* commit costs, and the benchmark comparisons
isolate replica control itself.
"""

from __future__ import annotations

from typing import Iterable

from .base import REJECT_TXN_LOST, ReplicaControlProtocol


class BaselineProtocol(ReplicaControlProtocol):
    """Commit vote and copy order for the baselines.

    A subclass chooses the copies (``logical_read`` / ``logical_write``)
    and answers ``available``; one that keeps more state extends
    ``__init__`` / ``attach`` through ``super()``.
    """

    def __init__(self, processor, placement, config, history, latency,
                 all_pids: Iterable[int]):
        if config.commit_backend != "2pc":
            # Paxos Commit's acceptors are the coordinator's view
            raise ValueError(
                f"{self.name} cannot commit through "
                f"{config.commit_backend!r}: it keeps no view to take "
                "Paxos Commit's acceptors from")
        super().__init__(processor, placement, config, history, latency,
                         all_pids)

    def _vote(self, txn, payload) -> str | None:
        """None (yes) unless the transaction is lost here.  A served
        access holds its admission until ``finish``; only the crash
        hook's fresh CC forgets it early — and that hook also restored
        the before-images, so a yes would commit a lost write."""
        return None if txn in self.cc.active_txns() else REJECT_TXN_LOST

    def _nearest(self, obj: str, among: Iterable[int]) -> list:
        """``obj``'s copy holders in ``among``, nearest first."""
        return self.placement.holders_by_distance(
            obj, among, lambda q: self._latency.distance(self.pid, q))
