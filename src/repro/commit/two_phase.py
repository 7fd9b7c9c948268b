"""Presumed-abort two-phase commit (the default backend).

The prepare scatter, the coordinator decision log, the ``txn-status``
query an in-doubt participant's resolver sends, and its cession.

Only what recovery reads is forced (R*'s presumed abort): the prepare
record of a share that wrote and the decision of a commit that wrote.
An abort or a read-only commit is journalled unforced (a lost one reads
as the presumed abort), a read-only share's doubt is volatile, and
nothing waits for a force that is not made.

The coordinator *retires* a decision's in-memory entry as soon as the
decide fan-out has left.  The WAL record written just before is the
durable authority — ``_handle_txn_status`` falls back to it — so the
in-memory map holds only in-flight transactions instead of growing
with history (``ProtocolMetrics.decisions_retired`` counts the pops).
The fallback changes no message payload and emits no event, which is
what keeps the golden trace pinned.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from ..core.errors import TransactionAborted
from .base import AtomicCommit


class TwoPhaseCommit(AtomicCommit):
    """Classic 2PC: the coordinator's log is the only decision authority.

    Blocking window: a prepared participant whose coordinator crashed
    before distributing the decision stays in doubt until the
    coordinator recovers (its resolver retries ``txn-status`` forever).
    """

    name = "2pc"

    def __init__(self, host: Any):
        super().__init__(host)
        #: coordinator-side decision log: txn -> undecided|commit|abort.
        #: Written before any decide message leaves, so in-doubt
        #: participants can query it (presumed abort when absent);
        #: retired to the WAL record once the fan-out is done.
        self.decisions: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def prepare_commit(self, ctx):
        """One voting round: the host's R4 screen here, then every
        participant's ``_vote`` (the local one in place of a message)."""
        # Open the decision-log entry before any participant can vote
        # yes: an in-doubt participant querying us must find at least
        # "undecided", never a missing entry (which means presumed abort).
        # Not journalled: only the in-memory map answers an open
        # transaction, and a crash journals the presumed abort over it.
        if ctx.txn_id not in self.decisions and self._journalled(ctx):
            self.decisions[ctx.txn_id] = "undecided"
            self._log_decision(ctx.txn_id, "undecided", forced=None)
        reason = self.host._r4_screen(ctx)
        if reason is not None:
            raise TransactionAborted(ctx.txn_id, reason)
        votes_needed = sorted(ctx.participants - {self.pid})
        payload = self._prepare_payload(ctx)
        # Two-phase scatter: the prepare requests go out *before* the
        # local vote runs (participants learn of the transaction and
        # become in-doubt even when the coordinator's own vote fails —
        # the resolver machinery handles them), matching the original
        # spawn-then-vote ordering.
        call = self.processor.scatter(
            votes_needed, "prepare", lambda _server: payload,
            timeout=self.config.access_timeout,
        )
        if self.pid in ctx.participants:
            verdict = self.host._vote(ctx.txn_id, payload)
            if verdict is not None:
                raise TransactionAborted(ctx.txn_id, f"local vote: {verdict}")
            # Our own yes vote is a participant prepare record (the
            # classic 2PC force point), its model-time cost overlapping
            # the remote vote collection already in flight.
            sync_cost = self._force_prepare(ctx.txn_id, ctx.objects)
            if sync_cost > 0:
                yield self.sim.timeout(sync_cost)
        results = yield from call.gather()
        for server in votes_needed:
            reply = results[server]
            status = ("no-response" if reply is None
                      else "yes" if reply["ok"] else reply["reason"])
            if status != "yes":
                raise TransactionAborted(
                    ctx.txn_id, f"participant {server} voted {status}"
                )
        return None

    def end_transaction(self, ctx, outcome: str):
        """Distribute the decision; participants release locks (strict 2PL).

        Decision messages are one-way: a participant that cannot be
        reached holds its locks until its own partition change clears
        them (strict mode) or until the lock timeout of a later
        conflicting transaction breaks the wait.
        """
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        if outcome == "commit" and self.decisions.get(ctx.txn_id) == "abort":
            # While we were collecting votes, an in-doubt participant
            # asked for the outcome and we ceded the abort (see
            # _handle_txn_status).  That answer is final — it may
            # already have been applied — so this transaction can no
            # longer commit.
            raise TransactionAborted(ctx.txn_id,
                                     "aborted while in doubt (R4)")
        if outcome == "commit" and self.host._force_aborted(ctx.txn_id):
            # Our own partition changed while the remote votes were in
            # flight and strict R4 force-aborted the transaction here
            # (on_partition_change): the local writes are already rolled
            # back and the locks dropped, so deciding commit now would
            # diverge from our own copies.  The coordinator still holds
            # its unilateral abort right at this point — exercise it.
            raise TransactionAborted(ctx.txn_id,
                                     "partition changed during commit (R4)")
        # The in-memory entry answers txn-status while the decision is
        # in flight; once the fan-out has left, the WAL record is the
        # durable authority (txn-status falls back to it).  Only a
        # commit that wrote is forced: presumed abort reads any other
        # lost record as an abort, which changes nothing a share keeps.
        self.decisions[ctx.txn_id] = outcome
        forced = (outcome == "commit" and bool(ctx.objects_written)
                  if self._journalled(ctx) else None)
        yield from self._decide(ctx.txn_id, outcome, sorted(ctx.participants),
                                forced)
        self.decisions.pop(ctx.txn_id, None)

    def _journalled(self, ctx) -> bool:
        """Does ``ctx``'s decision need a record: may a remote share ask
        for it, or does a write hang on it?"""
        return bool(ctx.objects_written or ctx.participants - {self.pid})

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def _wrote(self, txn) -> bool:
        """Does this processor's share of ``txn`` hold a before-image?"""
        return txn in self.host._before_images

    def _force_prepare(self, txn, objects) -> float:
        """A share that wrote nothing leaves recovery nothing to keep or
        undo: it forces no prepare record, and its vote waits for none."""
        return super()._force_prepare(txn, objects) if self._wrote(txn) else 0

    def handlers(self) -> Mapping[str, Callable]:
        """2PC's participant-side message kinds."""
        return {
            "prepare": self._handle_prepare,
            "release": self._handle_release,
            "txn-status": self._handle_txn_status,
        }

    def _handle_prepare(self, message):
        txn = message.payload["txn"]
        verdict = self.host._vote(txn, message.payload)
        if verdict is None:
            # classic 2PC uncertainty window: the watchdog's resolver
            # asks the coordinator's decision log
            sync_cost = self._prepared(txn, message.src, message.payload["objects"])
            self.processor.after(sync_cost, self.processor.reply, message,
                                 "prepare-reply", {"ok": True})
        else:
            self.processor.reply(message, "prepare-reply",
                                 {"ok": False, "reason": verdict})

    def _handle_release(self, message) -> None:
        self.host._apply_decision(message.payload["txn"],
                                  message.payload["outcome"])

    def _handle_txn_status(self, message) -> None:
        # Presumed abort: a transaction with no decision-log entry never
        # entered its prepare round here, so no decide can have been
        # sent — answering "abort" is always safe.  A retired entry is
        # answered from its WAL record (same outcome, no extra events).
        txn = message.payload["txn"]
        outcome = self.decisions.get(txn)
        if outcome is None:
            outcome = self.processor.store.decision_of(txn) or "abort"
        if outcome == "undecided":
            # The asker is an in-doubt participant whose recovery is
            # blocked on this transaction.  No decide has left yet, so
            # aborting is still our unilateral right — cede it rather
            # than keep a whole partition's Update-Copies waiting on
            # our vote collection (the strict-R4 trade, routed safely
            # through the decision log; end_transaction honours it).
            outcome = "abort"
            self.decisions[txn] = "abort"
            # Journalled unforced: a lost abort record reads as the
            # presumed abort, the very answer this reply carries.
            self._log_decision(txn, "abort", forced=False)
        self.processor.reply(message, "txn-status-reply",
                             {"outcome": outcome})

    # ------------------------------------------------------------------
    # in-doubt resolution
    # ------------------------------------------------------------------

    def _resolve_in_doubt(self, txn):
        """Learn an in-doubt transaction's outcome from its coordinator.

        Retries through partitions and crashes: the coordinator logs
        its decision before sending any decide, so the answer is
        "commit"/"abort" once decided and "undecided" at most briefly.
        A normally-delivered decide resolves the transaction while we
        retry; the loop notices and stops — also when that happened
        before our first look (no coordinator left to read, no loop).
        """
        retry = self.config.access_timeout
        coordinator = self.in_doubt.get(txn)
        while txn in self.in_doubt:
            reply = (yield from self.processor.scatter(
                (coordinator,), "txn-status", lambda _server: {"txn": txn},
                timeout=retry).gather())[coordinator]
            if reply is None or reply["outcome"] == "undecided":
                yield self.sim.timeout(retry)
                continue
            outcome = reply["outcome"]
            if txn in self.in_doubt:
                if self.tracer is not None:
                    self.tracer.emit("txn.resolve", pid=self.pid,
                                     txn=str(txn), outcome=outcome)
                self.host._apply_decision(txn, outcome)
            break

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """The decision log survives the crash (real coordinators force-
        write it); entries still undecided can never have sent a decide,
        so crashing finalizes them as the presumed abort.  The
        finalization is journalled (unforced — it is a recovery
        re-interpretation, not a new force point) so WAL replay rebuilds
        the same decision log; the journalled record then lets every
        entry retire from memory.  A read-only share's in-doubt entry
        has no prepare record behind it, so the crash forgets it (and
        the host's undo pass then sees no doubt to honour)."""
        self.resolving.clear()
        for txn in [t for t in self.in_doubt if not self._wrote(t)]:
            del self.in_doubt[txn]
            self._in_doubt_since.pop(txn, None)
        for txn, outcome in list(self.decisions.items()):
            if outcome == "undecided":
                self.decisions[txn] = "abort"
                self._log_decision(txn, "abort", forced=False)
        retired = len(self.decisions)
        self.decisions.clear()
        self.metrics.decisions_retired += retired
