"""Rules R1–R4: logical reads/writes and the physical access rules.

Implements what Figures 10 (``Logical-Read``) and 11
(``Logical-Write``) add to every protocol's read-one / write-all walk
— the R1 gate, the copies in the view, the request's ``v``/``pe``
stamp and the view-change rules for a silent copy — and the rules of
12 (``Physical-Access``); the walks and the copy server that serves
them are :mod:`repro.protocols.base`'s.  They are integrated with strict
two-phase locking on copies (the concurrency control protocol assumed
by §6's optimization discussion) and a prepare round at commit so that
rule R4 holds even when a server joins a new partition after
acknowledging an access — without the prepare round, a coordinator
whose own view never changed could commit a transaction whose write
was force-aborted elsewhere.

The mixin expects the protocol façade to provide: ``processor``,
``pid``, ``sim``, ``state``, ``placement``, ``directory``, ``config``,
``history``, ``cc``, ``metrics``, ``distance(pid)``, and
``create_new_vp()``.

Client-side routing (which copy do I read? which copies take the
write? is the object accessible from here?) goes through the
``directory``; server-side checks — the R4 vote and the weakened-R4
screen — stay on the authoritative ``placement``, because a vote must
not depend on the voter's cache temperature.
"""

from __future__ import annotations

from typing import Any

from ..analysis.history import CommittedWrite, DecisionApplied
from ..protocols.base import REJECT_POISONED, REJECT_STALE_PLACEMENT, REJECT_WRONG_PARTITION


class AccessMixin:
    """Client-side logical operations + server-side physical access rules."""

    # ------------------------------------------------------------------
    # client side: Figs. 10–11 — Logical-Read, Logical-Write
    # ------------------------------------------------------------------
    # The walks are ``ReplicaControlProtocol``'s; these add the R1 gate,
    # the copies in the view and the request's stamp: the view ``v``
    # and the placement epoch ``pe`` (R4's reshard arm — servers reject
    # a mismatch and the commit vote re-checks it).

    def logical_read(self, obj: str, ctx):
        """Read the nearest available copy of ``obj`` (rules R1 + R2)."""
        state = self.state
        if not self.available(obj, False):
            self._fail(obj, "r", "inaccessible")
        candidates = self.directory.read_candidates(
            obj, state.lview, self.distance)
        epoch = ctx.placement_epochs[obj] = self.directory.route_epoch(obj)
        payload = yield from self._read_one(
            obj, ctx, candidates if self.config.read_retry else candidates[:1],
            "no-copy-in-view", v=state.cur_id, pe=epoch)
        return payload["value"]

    def logical_write(self, obj: str, value: Any, ctx):
        """Write every copy of ``obj`` in the view (rules R1 + R3)."""
        state = self.state
        if not self.available(obj, True):
            self._fail(obj, "w", "inaccessible")
        epoch = ctx.placement_epochs[obj] = self.directory.route_epoch(obj)
        self.processor.transport.routed_fanouts += 1
        yield from self._write_all(
            obj, value, ctx, self.directory.write_targets(obj, state.lview),
            v=state.cur_id, pe=epoch)

    def _view_holds(self, vpid) -> bool:
        """Silence is news only in the view the access was issued in:
        once the view changed, the transition explains it (servers hold
        accesses while copies are locked) and a successor partition
        already exists — a read stops, and minting another would churn
        views under steady retry load."""
        return self.state.assigned and self.state.cur_id == vpid

    def _silenced(self) -> None:
        """Figs. 10–11, line 5 / 8: a silent copy means the view is
        stale — create a new virtual partition."""
        self.create_new_vp()

    def available(self, obj: str, write: bool) -> bool:
        """R1 as a pure predicate (reads and writes gate identically)."""
        return (self.state.assigned
                and self.directory.accessible(obj, self.state.lview))

    # ------------------------------------------------------------------
    # server side: Fig. 12 — Physical-Access's rules
    # ------------------------------------------------------------------
    # ``ReplicaControlProtocol`` serves the access (``_admit``,
    # ``_serve_read`` / ``_serve_write``); these overrides are Fig. 12's.

    def _gate(self, obj: str, write: bool):
        """Fig. 12: wait until (l not in locked) — the R5 gate.  Writes
        also wait out the reshard write gate: the §6 catch-up
        installing the new copy must see a quiescent value."""
        state = self.state
        if obj in state.locked or write and obj in state.migrating:
            return state.locked_changed.wait()
        return None

    def _refusal(self, obj: str, vpid, txn, payload,
                 write: bool) -> str | None:
        """Fig. 12's guards in order (None: serve): the partition; the
        placement epoch routed on (``pe``, 0 if never resharded) and
        ``holds()`` — else a reshard flip won the race — plus, for a
        write, the migration fence (the staged placement backs up the
        volatile ``migrating`` gate, forgotten by a holder that crashed
        mid-migration); for a write, a txn force-aborted here (R4)."""
        state = self.state
        if not (state.assigned and vpid == state.cur_id):
            return REJECT_WRONG_PARTITION
        if (payload.get("pe", 0) != self.placement.epoch_of(obj)
                or not self.processor.store.holds(obj)
                or write and (obj in state.migrating
                              or self.placement.pending_copies(obj))):
            return REJECT_STALE_PLACEMENT
        if write and txn in self._poisoned_txns:
            return REJECT_POISONED
        return None

    def _write_date(self, payload, old_date):
        """Fig. 12 lines 11-12: date(l) <- cur-id — refined per §6 with a
        within-partition write counter, so the log catch-up can tell
        apart (and correctly order) multiple writes carrying the same
        partition identifier.  Strict 2PL orders writes of one object
        identically at every copy, so the counters agree across
        up-to-date copies."""
        cur_id = self.state.cur_id
        if (isinstance(old_date, tuple) and len(old_date) == 2
                and old_date[0] == cur_id):
            return (cur_id, old_date[1] + 1)
        return (cur_id, 1)

    # ------------------------------------------------------------------
    # the commit backend's host hooks (R4 at commit, decisions)
    # ------------------------------------------------------------------
    # The atomic-commit phase runs in ``self.commit`` (repro.commit);
    # the host keeps what is replica-control business — the R4 screen
    # and vote, before-images, poisoning, and decision application.

    def _r4_screen(self, ctx) -> str | None:
        """Coordinator-side R4 screen before any prepare leaves (the
        participants re-check in ``_vote``): None while we are still in
        a partition the transaction used — or, weakened (§6), when
        every object it referenced is accessible in our current view
        and every participant is inside it."""
        state = self.state
        if state.assigned and state.cur_id in ctx.vpids or not ctx.vpids:
            return None
        if (self.config.weakened_r4 and state.assigned
                and all(self.placement.accessible(obj, state.lview)
                        for obj in ctx.objects)
                and ctx.participants <= state.lview):
            return None
        return "coordinator changed partition (R4)"

    def _force_aborted(self, txn) -> bool:
        return txn in self._poisoned_txns

    def _vote(self, txn, payload) -> str | None:
        """R4 vote; None means yes, otherwise the refusal reason."""
        state = self.state
        if txn in self._poisoned_txns:
            return REJECT_POISONED
        # Placement-epoch stamp check (the reshard arm of rule R4): a
        # transaction that read or wrote on a placement a migration has
        # since flipped must abort — its writes missed the new copy,
        # its reads may have used a retired one.
        stamps = payload.get("epochs") or {}
        for obj in payload["objects"]:
            if self.placement.epoch_of(obj) != stamps.get(obj, 0):
                return REJECT_STALE_PLACEMENT
        if state.assigned and state.cur_id in payload["vpids"]:
            return None  # still in a partition the transaction used
        if not self.config.weakened_r4:
            return REJECT_WRONG_PARTITION
        if not state.assigned:
            return REJECT_WRONG_PARTITION
        # Weakened R4 (§6): conditions (1) and (2) on the current view.
        objects_ok = all(
            self.placement.accessible(obj, state.lview)
            for obj in payload["objects"]
        )
        participants_ok = set(payload["participants"]) <= state.lview
        if objects_ok and participants_ok:
            return None
        return REJECT_WRONG_PARTITION

    def _apply_decision(self, txn, outcome: str) -> None:
        """Report the decision (and each committed write to a copy still
        held here) to ``history`` and drop the poison, then apply it."""
        now, store = self.sim.now, self.processor.store
        if outcome == "commit":
            for obj in sorted(self._before_images.get(txn, ())):
                if store.holds(obj):  # else retired by a reshard meanwhile
                    self.history.record(CommittedWrite(
                        now, self.pid, obj, store.version(obj)))
        self._poisoned_txns.discard(txn)
        self.history.record(DecisionApplied(now, self.pid, txn, outcome))
        super()._apply_decision(txn, outcome)

    # ------------------------------------------------------------------
    # partition-change effects on transactions (rule R4, strict mode)
    # ------------------------------------------------------------------

    def on_partition_change(self) -> None:
        """Called on every join: strict R4 force-aborts local participants.

        Their writes are rolled back and their locks dropped so the new
        partition's Update-Copies sees clean copies; the transactions'
        coordinators learn about it at prepare time.  In weakened mode
        locks survive — condition (3) is honoured by recovery reads
        taking shared locks.

        Exception: a transaction we voted yes for in the prepare round
        is *in-doubt* — the coordinator may have committed it and the
        decide message may simply be lost, so rolling it back here
        could erase a committed write that a later majority (without
        any up-to-date copy) would then never see.  In-doubt
        transactions keep their locks and writes; a resolver task
        queries the coordinator's decision log until it learns the
        outcome.  Recovery cannot ship their values meanwhile: the
        vpread gate refuses write-locked copies.
        """
        if self.config.weakened_r4:
            # Weakened mode lets transactions ride through view
            # changes; lost decides are still caught by the per-vote
            # watchdog, which fires only after the coordinator must
            # have decided — so no commit-bound transaction is ceded.
            return
        # Strict mode: resolve in-doubt transactions right away.  An
        # undecided 2PC coordinator cedes the abort (its txn-status
        # handler), which is the classic strict-R4 force-abort made
        # atomic; a Paxos resolver decides from the acceptors instead.
        for txn in sorted(self.commit.in_doubt, key=repr):
            self.commit.kick_resolver(txn)
        for txn in sorted(self.cc.active_txns(), key=repr):
            if txn in self.commit.in_doubt:
                continue
            self._apply_decision(txn, "abort")
            self._poisoned_txns.add(txn)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _in_doubt_objects(self) -> set:
        """The objects whose local copy carries a prepared, undecided write.

        While one does, the copy's date must not be treated as
        authoritative: the write may yet be undone (abort) or may be the
        only surviving committed value (commit).  Recovery consults this
        because CC locks are volatile — after a crash the lock table is
        empty but the in-doubt write (force-written with its prepare
        record) is still on the copy.  One scan serves a whole delivery.
        """
        return {obj for txn in self.commit.in_doubt
                for obj in self._before_images.get(txn, ())}
