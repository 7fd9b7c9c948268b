"""The shared skeleton of the baseline protocols.

The baselines differ in *which copies* a logical operation touches and
*when it is allowed* — not in how a physical access is served (every
protocol's copy server is :class:`~repro.protocols.base.ReplicaControlProtocol`'s,
under its default rules) or how a read-one / write-all walk visits its
copies.  :class:`BaselineProtocol` owns what they share beyond that:
the commit vote and two client loops —
:meth:`~BaselineProtocol._read_one` (the nearest copy answers, silence
moves on, a refusal ends it) and :meth:`~BaselineProtocol._write_all`
(every target acknowledges or the write aborts).  They commit through
:class:`~repro.commit.two_phase.TwoPhaseCommit` like the virtual
partitions protocol does by default, so every protocol pays identical
concurrency control *and* commit costs, and the benchmark comparisons
isolate replica control itself.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..analysis.history import LogicalAccess, LogicalOp
from ..core.errors import AccessAborted
from .base import REJECT_TXN_LOST, ReplicaControlProtocol


class BaselineProtocol(ReplicaControlProtocol):
    """Commit vote and client loops for the baselines.

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

    # ------------------------------------------------------------------
    # the commit backend's host hooks
    # ------------------------------------------------------------------

    def _vote(self, txn, payload) -> str | None:
        """None (yes) unless the transaction is lost here.  A served
        access holds its admission until ``finish``; only the crash
        hook's fresh CC forgets it early — and that hook also restored
        the before-images, so a yes would commit a lost write."""
        return None if txn in self.cc.active_txns() else REJECT_TXN_LOST

    # ------------------------------------------------------------------
    # client-side helpers
    # ------------------------------------------------------------------

    def _nearest(self, obj: str, among: Iterable[int]) -> list:
        """``obj``'s copy holders in ``among``, nearest first."""
        return self.placement.holders_by_distance(
            obj, among, lambda q: self._latency.distance(self.pid, q))

    def _read_one(self, obj: str, ctx, candidates: Iterable[int],
                  last_reason: str):
        """Generator: read ``obj`` at the first of ``candidates`` that
        answers.  Silence moves on to the next copy; a refusal ends the
        read.  Returns the served reply; an abort carries the refusal,
        ``"no-response"``, or ``last_reason`` if there was no candidate."""
        for server in candidates:
            self.metrics.physical_read_rpcs += 1
            if server == self.pid:
                self.metrics.local_reads += 1
            payload = (yield from self.processor.scatter(
                (server,), "read",
                lambda _s: {"obj": obj, "txn": ctx.txn_id,
                            "ts": ctx.timestamp},
                timeout=self.config.access_timeout).gather())[server]
            if payload is None:
                last_reason = "no-response"
                continue
            if payload["ok"]:
                self._record_logical(ctx, "r", obj, payload["value"],
                                     payload["version"])
                ctx.note_access("r", obj, server, None)
                return payload
            last_reason = payload["reason"]
            break
        self.metrics.abort("r", last_reason)
        raise AccessAborted(obj, last_reason)

    def _write_all(self, obj: str, value: Any, ctx, targets: list):
        """Generator: every copy in ``targets`` must acknowledge, or the
        write (and its transaction) aborts."""
        version = ctx.next_version()
        self.metrics.physical_write_rpcs += len(targets)
        results = yield from self.processor.scatter(
            targets, "write",
            lambda _s: {"obj": obj, "value": value, "txn": ctx.txn_id,
                        "ts": ctx.timestamp, "version": version,
                        "date": None},
            timeout=self.config.access_timeout).gather()
        failures = {s: p for s, p in results.items()
                    if p is None or not p["ok"]}
        for server, payload in results.items():
            if payload is not None and payload.get("ok"):
                ctx.note_access("w", obj, server, None)
        if failures:
            reason = next(
                (p["reason"] for p in failures.values() if p is not None),
                "no-response",
            )
            ctx.poison(f"write {obj!r} failed at {sorted(failures)}: {reason}")
            self.metrics.abort("w", reason)
            raise AccessAborted(obj, reason)
        self._record_logical(ctx, "w", obj, value, version)

    def _record_logical(self, ctx, kind: str, obj: str, value,
                        version) -> None:
        """Report a logical access: a baseline has no partition, routes
        on no placement epoch, and is not audited (so no targets)."""
        self.history.record(LogicalAccess(
            LogicalOp(self.sim.now, ctx.txn_id, kind, obj, value, version),
            self.pid, None, (), 0))
