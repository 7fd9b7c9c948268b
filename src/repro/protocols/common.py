"""The shared skeleton of the baseline protocols.

The baselines differ in *which copies* a logical operation touches and
*when it is allowed* — not in how a physical access is served or how a
read-one / write-all walk visits its copies.  :class:`BaselineProtocol`
owns what they share: the copy server (strict-2PL copy locking with
before-images), the commit vote, and two client loops —
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

from ..analysis.history import LogicalAccess, LogicalOp, PhysicalOp
from ..core.errors import AccessAborted
from .base import ReplicaControlProtocol

REJECT_LOCK_TIMEOUT = "lock-timeout"
REJECT_NO_COPY = "no-copy"
REJECT_TXN_LOST = "txn-lost"
REJECT_IN_DOUBT = "in-doubt"


class BaselineProtocol(ReplicaControlProtocol):
    """Copy server, commit vote and client loops for the baselines.

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

    def attach(self) -> None:
        self.processor.serve_spawned("read", self._serve_read)
        self.processor.serve_spawned("write", self._serve_write)
        super().attach()

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------

    def _admitted(self, message, begin):
        """Generator: may this copy serve the access?  True once the CC
        (``begin``: its read or write admission) grants it; otherwise
        the refusal is replied.  A copy carrying the write of an
        in-doubt transaction whose admission the crash hook's fresh CC
        forgot is refused outright: nothing else keeps accesses off
        that write, which the resolver may yet undo."""
        obj, txn = message.payload["obj"], message.payload["txn"]
        writers = {t for t in self.commit.in_doubt
                   if obj in self._before_images.get(t, ())}
        if not self.processor.store.holds(obj):
            reason = REJECT_NO_COPY
        elif writers and writers - self.cc.active_txns():
            reason = REJECT_IN_DOUBT
        else:
            granted, reason = yield from begin(
                txn, message.payload.get("ts"), obj)
            if granted:
                return True
        self.processor.reply(message, f"{message.kind}-reply", {
            "ok": False, "reason": reason or REJECT_LOCK_TIMEOUT})
        return False

    def _serve_read(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not (yield from self._admitted(message, self.cc.begin_read)):
            return
        value, date = store.read(obj)
        version = store.version(obj)
        self.history.record(PhysicalOp(self.sim.now, txn, "r", obj, self.pid,
                                       value, version, None))
        self.processor.reply(message, "read-reply", {
            "ok": True, "value": value, "date": date, "version": version,
        })

    def _serve_write(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not (yield from self._admitted(message, self.cc.begin_write)):
            return
        images = self._before_images.setdefault(txn, {})
        if obj not in images:
            old_value, old_date = store.peek(obj)
            images[obj] = (old_value, old_date, store.version(obj))
        date = payload.get("date")
        if date is None:
            date = store.date(obj)
        store.write(obj, payload["value"], date, payload["version"])
        self.history.record(PhysicalOp(self.sim.now, txn, "w", obj, self.pid,
                                       payload["value"], payload["version"],
                                       None))
        self.processor.reply(message, "write-reply", {"ok": True})

    # ------------------------------------------------------------------
    # the commit backend's host hooks
    # ------------------------------------------------------------------

    def _vote(self, txn, payload) -> str | None:
        """None (yes) unless the transaction is lost here.  A served
        access holds its admission until ``finish``; only the crash
        hook's fresh CC forgets it early — and that hook also restored
        the before-images, so a yes would commit a lost write."""
        return None if txn in self.cc.active_txns() else REJECT_TXN_LOST

    def _apply_decision(self, txn, outcome: str) -> None:
        images = self._before_images.pop(txn, {})
        if outcome == "abort":
            for obj, (value, date, version) in images.items():
                self.processor.store.install(obj, value, date, version)
        elif images and self.lease_table is not None:
            # mirror of AccessMixin._apply_decision: a committed write
            # invalidates any lease this processor granted on the object
            for obj in images:
                self.lease_table.invalidate(obj)
        self.commit.note_resolved(txn)
        self.cc.finish(txn, outcome)

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
