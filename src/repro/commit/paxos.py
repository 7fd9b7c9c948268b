"""Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*).

Non-blocking atomic commit: each resource manager's prepared/aborted
vote is one Paxos consensus instance, replicated to the transaction's
2F+1 acceptors.  The global outcome is a pure function of the chosen
votes — commit iff every instance chose "prepared" — so *any* node
that can reach a majority of acceptors can finish the transaction.
The coordinator is only an optimization (it collects the fast-path
ballot-0 accepts); its crash moves leadership to whichever prepared
participant's watchdog fires first, and the in-doubt window closes
without the coordinator ever recovering.  That is the property 2PC
cannot offer: there, the coordinator's decision log is the single
authority and its crash parks every prepared participant.

Mapping onto this codebase's primitives:

* **Acceptors** are the coordinator's view members at prepare time
  (their durable state rides on :meth:`StorageEngine.durable_cell`,
  one cell per consensus instance, forced on every promise/accept at
  one ``storage_sync_cost`` per batch; the answer waits on a timer).
* **Ballot 0** is reserved for the RM itself: it force-writes its
  prepare record, then sends phase-2a ``px-accept`` messages straight
  to the acceptors (no phase 1 needed — ballot 0 cannot have been
  preempted unless a recovery leader already moved in, in which case
  the stale 2a is simply dropped; ``_accept`` takes every 2a).
* **Recovery leaders** (the coordinator on collection timeout, or any
  in-doubt participant's watchdog/partition-change/recovery resolver)
  run full ballots ``attempt * BALLOT_STRIDE + pid`` over all
  instances at once, batched per acceptor through the ordinary
  ``scatter_gather`` quorum machinery: phase 1 to a majority, pick
  each instance's highest-ballot accepted value — aborting *free*
  instances, whose RM's ballot-0 vote can then never reach a majority
  unseen — and phase 2 to a majority.

Unilateral abort discipline: once prepare messages have left, the
coordinator may abort on its own only while it knows its own instance
can never choose "prepared" (it never proposed that vote) — e.g. its
local R4 vote failed.  In every other pre-decision failure mode it
must *cede* the outcome to the recovery leaders rather than guess;
the transaction's history record is then closed by whoever decides
(``History.finish_txn_once`` makes that race idempotent).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import TransactionAborted
from .base import AtomicCommit

#: recovery ballots are ``attempt * BALLOT_STRIDE + pid`` — distinct
#: per leader, strictly above the RMs' fast ballot 0, and increasing
#: per attempt (classic Paxos ballot allocation)
BALLOT_STRIDE = 1024

#: acceptor cell value: (promised ballot, accepted ballot or None,
#: accepted vote or None); a missing cell means the acceptor is fresh
AcceptorState = Tuple[int, Optional[int], Optional[str]]


class PaxosCommit(AtomicCommit):
    """Gray & Lamport's commit protocol over the VP transport layer."""

    name = "paxos"

    def __init__(self, host: Any):
        super().__init__(host)
        #: consensus outcomes determined here: txn -> commit|abort
        self._outcome: Dict[Any, str] = {}
        #: per-txn instance metadata (participants, acceptors,
        #: majority, leader).  Modelled as part of the force-written
        #: prepare record, so it deliberately survives on_crash —
        #: recovery leadership needs it.
        self._meta: Dict[Any, dict] = {}
        #: coordinator-side fast-path collection: txn -> {event,
        #: instances, tallies}; volatile (cleared on crash)
        self._collect: Dict[Any, dict] = {}

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def prepare_commit(self, ctx):
        """Run every participant's voting instance; wait for all of
        them to choose.  Same R4 screens as the 2PC backend — what
        changes is who may finish the transaction afterwards."""
        reason = self.host._r4_screen(ctx)
        if reason is not None:
            raise TransactionAborted(ctx.txn_id, reason)
        txn = ctx.txn_id
        participants = sorted(ctx.participants)
        if not participants:
            # No copies were touched: nothing is prepared anywhere and
            # every instance is trivially free — presumed abort/commit
            # without any consensus round.
            return None
        state = self.host.state
        acceptors = sorted(state.lview) if state.assigned else [self.pid]
        meta = self._prepare_payload(ctx)
        meta.update(acceptors=acceptors, majority=len(acceptors) // 2 + 1,
                    leader=self.pid)
        self._meta[txn] = meta
        wait = self._begin_collect(txn, participants)
        for server in participants:
            if server != self.pid:
                self.processor.send(server, "prepare", meta)
        if self.pid in ctx.participants:
            verdict = self.host._vote(txn, meta)
            if verdict is not None:
                # Only the RM itself ever proposes "prepared" for its
                # own instance (at ballot 0); since we never will, no
                # quorum can choose prepared for it and abort is the
                # only decidable outcome — this unilateral abort is
                # consensus-safe.  Cast the no-vote anyway so recovery
                # leaders converge without waiting out a free instance.
                self._cast_vote(txn, "aborted", meta)
                self._outcome[txn] = "abort"
                raise TransactionAborted(txn, f"local vote: {verdict}")
            # Our yes vote: force the prepare record, then run our own
            # instance exactly like any remote RM's.
            self.note_in_doubt(txn, self.pid)
            self._force_prepare(txn, ctx.objects)
            self._after_sync(self._cast_vote, txn, "prepared", meta)
        instances = yield from self.sim.wait(wait, self.config.access_timeout)
        if instances is None:
            # Fast path timed out (a silent RM, a lost accept, a cut):
            # become a recovery leader over our own transaction.
            chosen = yield from self._ballots(
                txn, lambda: self.processor.alive and txn in self._meta)
            if chosen is not None:
                instances = chosen[1]
            elif not self.processor.alive:
                # Our processor crashed under this client process.  We
                # can no longer learn or influence the outcome — the
                # participants' recovery leaders own it now (that is
                # the point of Paxos Commit).  end_transaction sees no
                # determined outcome and stays silent.
                raise TransactionAborted(txn, "coordinator crashed "
                                              "while deciding")
            else:
                # A recovery leader finished the transaction while we
                # slept: either its decide already applied here (the
                # release handler memoizes the outcome for our own
                # transactions) or this node itself led the resolution
                # (which journals the decision).  Adopt that outcome —
                # deciding anything else would contradict consensus.
                known = (self._outcome.get(txn)
                         or self.processor.store.decision_of(txn))
                if known is None:
                    raise TransactionAborted(
                        txn, "consensus state lost while deciding")
                instances = {self.pid: ("prepared" if known == "commit"
                                        else "aborted")}
        self._collect.pop(txn, None)
        outcome = ("commit"
                   if all(v == "prepared" for v in instances.values())
                   else "abort")
        self._outcome[txn] = outcome
        if outcome == "abort":
            raise TransactionAborted(txn, "a participant voted aborted")
        return None

    def end_transaction(self, ctx, outcome: str):
        """Distribute a *consensus-backed* outcome (or a presumed abort
        for transactions that never started a voting round)."""
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        txn = ctx.txn_id
        known = self._outcome.pop(txn, None)
        started = txn in self._collect
        self._collect.pop(txn, None)
        if outcome == "commit" and known != "commit":
            # Defensive: prepare_commit determines the outcome before
            # returning, so a commit without one cannot happen — but it
            # must never be distributed on faith.
            raise TransactionAborted(txn, "commit without consensus")
        if (outcome == "abort" and known is None
                and (started or not self.processor.alive)):
            # A voting round exists but no outcome was determined here —
            # a coordinator interrupted mid-decision, or a zombie client
            # of a crashed processor (whose crash hook cleared the
            # volatile collect state, hence the liveness check).  It
            # must stay silent: the acceptors may yet choose commit,
            # and a unilateral abort here could contradict the recovery
            # leaders.  The history record stays open; whoever decides
            # closes it (see _decide).
            self._meta.pop(txn, None)
            raise TransactionAborted(txn, "outcome ceded to recovery leaders")
        yield from self._decide(txn, outcome, sorted(ctx.participants))

    def _decide(self, txn, outcome: str, participants):
        """Journal the decision, fan it out, close the history record.

        Unlike 2PC the decision-log record is a convenience, not the
        authority — any majority of acceptors can re-derive the
        outcome — so the instance metadata retires with the fan-out.
        """
        yield from super()._decide(txn, outcome, participants)
        self._meta.pop(txn, None)
        # Close the transaction's history record if its own client
        # could not (dead coordinator): first finalization wins, the
        # client's own commit/abort path is a no-op afterwards.
        status = "committed" if outcome == "commit" else "aborted"
        self.host.history.finish_txn_once(
            txn, status, self.sim.now, reason="decided by recovery leader")

    # ------------------------------------------------------------------
    # the fast path: ballot-0 votes and their collection
    # ------------------------------------------------------------------

    def _begin_collect(self, txn, participants):
        """Register the coordinator's fast-path tally; returns the
        event that fires with ``{rm: vote}`` once every instance has a
        majority of same-ballot accepts."""
        event = self.sim.event(name=f"px-collect{txn}")
        self._collect[txn] = {
            "event": event,
            "instances": {rm: None for rm in participants},
            "tallies": {},
        }
        return event

    def _cast_vote(self, txn, vote: str, meta) -> None:
        """Ballot-0 phase 2a: propose this RM's own vote everywhere.

        A prepared vote is cast once the prepare record's force has
        landed (``_after_sync``); the no-vote needs no durability
        (forgetting it re-aborts)."""
        request = {"txn": txn, "rm": self.pid, "ballot": 0, "vote": vote,
                   "leader": meta["leader"]}
        for acceptor in meta["acceptors"]:
            if acceptor != self.pid:
                self.processor.send(acceptor, "px-accept", request)
        if self.pid in meta["acceptors"]:
            self._accept(request)

    def _accept(self, request) -> None:
        """Acceptor: accept one instance's 2a ``request``, force it, and
        once the force has landed notify the leader (locally when we are
        the leader — no self-sends)."""
        txn, rm = request["txn"], request["rm"]
        ballot, vote, leader = request["ballot"], request["vote"], request["leader"]
        cell = self._acceptor_cell(txn, rm)
        state: Optional[AcceptorState] = cell.value
        if state is not None and ballot < state[0]:
            return  # promised a higher ballot; drop the stale 2a
        cell.value = (ballot, ballot, vote)
        payload = {"txn": txn, "rm": rm, "ballot": ballot, "vote": vote,
                   "acceptor": self.pid}
        if leader == self.pid:
            self._after_sync(self._note_accepted, payload)
        else:
            self._after_sync(self.processor.send, leader, "px-accepted",
                             payload)

    def _note_accepted(self, payload) -> None:
        """Leader: tally one 2b; fire the collection event when every
        instance has a same-ballot majority."""
        txn = payload["txn"]
        entry = self._collect.get(txn)
        meta = self._meta.get(txn)
        if entry is None or meta is None:
            return  # not collecting (already decided, or not ours)
        instances = entry["instances"]
        rm = payload["rm"]
        if rm not in instances:
            return
        votes = (entry["tallies"].setdefault(rm, {})
                 .setdefault(payload["ballot"], {}))
        votes[payload["acceptor"]] = payload["vote"]
        if instances[rm] is None and len(votes) >= meta["majority"]:
            instances[rm] = payload["vote"]
            if all(v is not None for v in instances.values()):
                event = entry["event"]
                if not event.triggered:
                    event.succeed(dict(instances))

    # ------------------------------------------------------------------
    # recovery leadership (full ballots)
    # ------------------------------------------------------------------

    def _lead(self, txn, meta, ballot: int):
        """One complete ballot over all of ``txn``'s instances, batched
        per acceptor: phase 1 to a majority, pick each instance's
        highest-ballot accepted value (aborting free instances), phase
        2 to a majority.  Returns the chosen ``{rm: vote}`` map, or
        None when preempted or short of quorum."""
        rms = meta["participants"]
        acceptors = meta["acceptors"]
        majority = meta["majority"]
        sync_cost = self.config.storage_sync_cost
        others = [a for a in acceptors if a != self.pid]

        # Phase 1: promises from a majority.
        promises: List[dict] = []
        if self.pid in acceptors:
            local = self._promise_locally(txn, ballot, rms)
            if local is not None:
                if sync_cost > 0:
                    yield self.sim.timeout(sync_cost)
                promises.append(local)
        promises += yield from self._round(
            others, majority - len(promises), "px-p1",
            {"txn": txn, "ballot": ballot, "rms": rms})
        if len(promises) < majority:
            return None

        # Choose values: highest-ballot accepted per instance; a free
        # instance (no accepted value in a full majority) means the
        # RM's ballot-0 vote cannot be chosen behind our back — abort.
        votes: Dict[int, str] = {}
        for rm in rms:
            best = None
            for reply in promises:
                entry = reply["accepted"].get(rm)
                if entry is not None and (best is None
                                          or entry[0] > best[0]):
                    best = entry
            votes[rm] = best[1] if best is not None else "aborted"

        # Phase 2: accepts from a majority.
        accepted = 0
        if self.pid in acceptors and self._accept_locally(txn, ballot,
                                                          votes):
            accepted += 1
            if sync_cost > 0:
                yield self.sim.timeout(sync_cost)
        accepted += len((yield from self._round(
            others, majority - accepted, "px-p2",
            {"txn": txn, "ballot": ballot, "votes": votes})))
        if accepted < majority:
            return None
        return votes

    def _round(self, others, needed: int, kind: str, payload):
        """Generator: one remote phase — ``payload`` to every acceptor
        in ``others``, waiting for ``needed`` ok replies (or the access
        timeout); returns the ok replies, none when ``needed`` is out
        of reach or already met."""
        if needed <= 0 or len(others) < needed:
            return []

        def quorum(results):
            return sum(1 for r in results.values()
                       if r is not None and r["ok"]) >= needed

        replies = yield from self.processor.scatter_gather(
            others, kind, lambda _server: payload,
            timeout=self.config.access_timeout, quorum=quorum)
        return [r for r in replies.values() if r is not None and r["ok"]]

    def _promise_locally(self, txn, ballot: int, rms):
        """Local-acceptor phase 1b for all instances (batched force);
        returns a reply-shaped dict, or None when preempted."""
        cells = [(rm, self._acceptor_cell(txn, rm)) for rm in rms]
        for _rm, cell in cells:
            state: Optional[AcceptorState] = cell.value
            if state is not None and ballot < state[0]:
                return None
        accepted = {}
        for rm, cell in cells:
            state = cell.value
            cell.value = (ballot,
                          state[1] if state else None,
                          state[2] if state else None)
            if state is not None and state[1] is not None:
                accepted[rm] = (state[1], state[2])
        return {"ok": True, "accepted": accepted}

    def _accept_locally(self, txn, ballot: int, votes) -> bool:
        """Local-acceptor phase 2b for all instances (batched force)."""
        cells = [(rm, self._acceptor_cell(txn, rm)) for rm in votes]
        for _rm, cell in cells:
            state: Optional[AcceptorState] = cell.value
            if state is not None and ballot < state[0]:
                return False
        for rm, cell in cells:
            cell.value = (ballot, ballot, votes[rm])
        return True

    def _acceptor_cell(self, txn, rm: int):
        """The durable cell of one consensus instance's acceptor state.

        Durable cells journal a forced WAL record on every write, so
        promises and accepts survive the acceptor's crash — the
        protocol's correctness leans on exactly that."""
        return self.processor.store.durable_cell(f"px:{txn}:{rm}")

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def handlers(self) -> Mapping[str, Callable]:
        """Paxos Commit's participant- and acceptor-side message kinds."""
        return {
            "prepare": self._handle_prepare,
            "release": self._handle_release,
            "px-accept": lambda message: self._accept(message.payload),
            "px-accepted": lambda message: self._note_accepted(message.payload),
            "px-p1": self._handle_px_p1,
            "px-p2": self._handle_px_p2,
        }

    def _handle_prepare(self, message) -> None:
        payload = message.payload
        txn = payload["txn"]
        verdict = self.host._vote(txn, payload)
        self._meta.setdefault(txn, dict(payload))
        if verdict is None:
            # In doubt from here until a decision applies — but unlike
            # 2PC, resolution needs a majority of acceptors, never the
            # coordinator itself.  The watchdog's resolver *decides*
            # rather than asks.
            self._prepared(txn, message.src, payload["objects"])
            self._after_sync(self._cast_vote, txn, "prepared", payload)
        else:
            self._cast_vote(txn, "aborted", payload)

    def _handle_release(self, message) -> None:
        txn = message.payload["txn"]
        outcome = message.payload["outcome"]
        meta = self._meta.get(txn)
        if meta is not None and meta["leader"] == self.pid:
            # A recovery leader finished our own transaction; the
            # client generator may still be waiting out its vote
            # collection.  Leave it the outcome — end_transaction pops
            # the memo, so this cannot outlive the transaction.
            self._outcome.setdefault(txn, outcome)
        self.host._apply_decision(txn, outcome)
        self._meta.pop(txn, None)

    def _handle_px_p1(self, message) -> None:
        """Acceptor phase 1b (remote): all-instance promise + one
        batched force before the reply."""
        payload = message.payload
        reply = self._promise_locally(payload["txn"], payload["ballot"],
                                      payload["rms"])
        if reply is None:
            self.processor.reply(message, "px-p1-reply", {"ok": False})
        else:
            self._after_sync(self.processor.reply, message, "px-p1-reply",
                             reply)

    def _handle_px_p2(self, message) -> None:
        """Acceptor phase 2b (remote): all-instance accept + one
        batched force before the reply."""
        payload = message.payload
        if self._accept_locally(payload["txn"], payload["ballot"],
                                payload["votes"]):
            self._after_sync(self.processor.reply, message, "px-p2-reply",
                             {"ok": True})
        else:
            self.processor.reply(message, "px-p2-reply", {"ok": False})

    # ------------------------------------------------------------------
    # in-doubt resolution (recovery leadership)
    # ------------------------------------------------------------------

    def _resolve_in_doubt(self, txn):
        """Become a recovery leader and *decide* the outcome from the
        acceptors — the coordinator is not consulted, so its crash
        bounds our in-doubt dwell at roughly one watchdog period plus
        a ballot round-trip.  Concurrent leaders are safe: ballots
        embed the pid and Paxos makes them all choose the same votes.
        A normally-delivered decide resolves the transaction while we
        lead; the loop notices and stops."""
        chosen = yield from self._ballots(txn, lambda: txn in self.in_doubt)
        if chosen is not None and txn in self.in_doubt:
            meta, votes = chosen
            outcome = ("commit"
                       if all(v == "prepared" for v in votes.values())
                       else "abort")
            if self.tracer is not None:
                self.tracer.emit("txn.resolve", pid=self.pid,
                                 txn=str(txn), outcome=outcome)
            yield from self._decide(
                txn, outcome,
                sorted(set(meta["participants"]) | {meta["leader"]}))

    def _ballots(self, txn, going):
        """Generator: recovery ballots over ``txn`` while ``going()``
        holds, one access timeout apart (a round with no metadata to
        lead on just waits its turn); returns ``(meta, votes)`` of the
        first ballot that completes, or None once ``going()`` fails."""
        attempt = 1
        while going():
            meta = self._meta.get(txn)
            if meta is not None:
                votes = yield from self._lead(
                    txn, meta, attempt * BALLOT_STRIDE + self.pid)
                if votes is not None:
                    return meta, votes
                attempt += 1
            yield self.sim.timeout(self.config.access_timeout)
        return None

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile leadership state dies; acceptor cells and prepare
        metadata are durable.  Unlike 2PC there is nothing to presume-
        abort: undecided transactions belong to the acceptors now, and
        a recovery leader — any prepared participant, or this node
        after recovery — finishes them."""
        self.resolving.clear()
        self._collect.clear()
        self._outcome.clear()
