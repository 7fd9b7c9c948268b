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
  (their durable state is one engine cell value per consensus instance,
  every ballot-0 accept sharing one tuple per vote; the answer waits on
  a timer).  Each charged ``storage_sync_cost`` is one forced record:
  the first cell written for it is forced, the rest are plain appends
  that ride it.  An acceptor's ballot-0 accepts of one instant for one
  leader share one force and leave as one ``px-accepted`` (Gray &
  Lamport's 2b bundling; with free forces each flushes inline, alone).
* **Ballot 0** is reserved for the RM itself: it force-writes its
  prepare record, then sends phase-2a ``px-accept`` messages straight
  to its *fast set*: the leader, itself, then the lowest other
  acceptors up to a majority (no phase 1: ballot 0 cannot have been
  preempted unless a recovery leader already moved in, and ``_accept``
  drops such a stale 2a).  The other acceptors see the instance only
  in a recovery ballot: a silent fast-set acceptor costs its
  transaction an access timeout and a ballot round.
* **Co-location:** a yes-voting RM's own acceptor accepts the vote in
  the instant the prepare record is written, a plain append that force
  covers.  The 2a leaving when the force lands carries ``own``: whether
  that acceptor holds the vote (after a higher promise it refused).
  The leader counts it off an ``own`` 2a, so no ``px-accepted`` ever
  carries an RM's own instance.  At priced forces with M >= 3 and a
  remote RM, the leader's own 2a leaves one hop δ after its force, in
  the instant the remote RMs' 2a's do: each acceptor then forces once
  per transaction, and no instance completes later than a remote one.
* **Recovery leaders** (the coordinator on collection timeout, or any
  in-doubt participant's watchdog/partition-change/recovery resolver)
  run full ballots ``attempt * BALLOT_STRIDE + pid`` over all
  instances at once, batched per acceptor through the ordinary
  ``scatter(…).gather(quorum)`` machinery: phase 1 to a majority, pick
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

#: a ballot-0 accept's state: one tuple per vote, shared by every instance
FAST_ACCEPTED = {vote: (0, 0, vote) for vote in ("prepared", "aborted")}


class PaxosCommit(AtomicCommit):
    """Gray & Lamport's commit protocol over the VP transport layer."""

    name = "paxos"

    def __init__(self, host: Any):
        super().__init__(host)
        # the acceptors are the view of the host's Fig. 3 state
        if getattr(host, "state", None) is None:
            raise ValueError(f"{host.name} cannot commit through 'paxos': "
                             "it keeps no view to take Paxos Commit's "
                             "acceptors from")
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
        #: acceptor side: (leader, instant) -> the 2b answers accepted
        #: then, waiting out their one shared force; volatile
        self._batches: Dict[Tuple[int, float], list] = {}

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
        meta.update(acceptors=acceptors, majority=len(acceptors) // 2 + 1, leader=self.pid)
        self._meta[txn] = meta
        wait = self.sim.event(name=f"px-collect{txn}")  # fires with {rm: vote}
        self._collect[txn] = {"event": wait, "tallies": {},
                              "instances": dict.fromkeys(participants)}
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
            self._cast_vote(txn, "prepared", meta)
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
                raise TransactionAborted(txn, "coordinator crashed while deciding")
            else:
                # A recovery leader finished the transaction while we
                # slept: either its decide already applied here (the
                # release handler memoizes the outcome for our own
                # transactions) or this node itself led the resolution
                # (which journals the decision).  Adopt that outcome —
                # deciding anything else would contradict consensus.
                known = (self._outcome.get(txn) or self.processor.store.decision_of(txn))
                if known is None:
                    raise TransactionAborted(txn, "consensus state lost while deciding")
                instances = {self.pid: ("prepared" if known == "commit" else "aborted")}
        self._collect.pop(txn, None)
        outcome = ("commit" if all(v == "prepared" for v in instances.values()) else "abort")
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
        started = self._collect.pop(txn, None) is not None
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

    def _cast_vote(self, txn, vote: str, meta) -> None:
        """Ballot-0 phase 2a: propose this RM's own vote to its fast set.
        Our acceptor takes a yes vote under the prepare force (``own``)
        and the 2a leaves when that lands; the no-vote needs no
        durability (forgetting it re-aborts): it leaves at once and our
        acceptor answers it like any other.  A leader's yes vote at
        priced forces, with a remote RM and a fast set of three or more,
        waits one prepare hop more: it then reaches every acceptor in
        the instant the remote votes do and rides their one force, and
        still completes no later than they (each needs a third acceptor)."""
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
            # δ, then the sync: the very float sum of a remote vote's
            # instant (its prepare's hop, then its force), so they batch
            self.processor.after(self.config.delta, self._after_sync, self._propose, request, fast)
        else:
            self._after_sync(self._propose, request, fast)

    def _propose(self, request, fast) -> None:
        """Send a ballot-0 2a to its fast set, then to our own acceptor."""
        for acceptor in fast:
            if acceptor != self.pid:
                self.processor.send(acceptor, "px-accept", request)
        if self.pid in fast:
            self._accept(request)

    def _accept(self, request) -> None:
        """Acceptor: accept one instance's 2a ``request`` (an ``own`` one
        its RM's acceptor holds already: the leader counts that one off
        it).  The accepts of one instant for one leader share one force,
        the first forced and the rest riding it, and once it has landed
        leave as one ``px-accepted`` (tallied in place by the leader)."""
        txn, rm = request["txn"], request["rm"]
        ballot, vote, leader = request["ballot"], request["vote"], request["leader"]
        if request["own"]:
            if leader == self.pid:
                self._note_accepted(rm, [(txn, rm, ballot, vote)])
            if rm == self.pid:
                return
        store, name = self.processor.store, f"px:{txn}:{rm}"
        state: Optional[AcceptorState] = store.cell(name)
        if state is not None and ballot < state[0]:
            return  # promised a higher ballot; drop the stale 2a
        key = (leader, self.sim.now)
        batch = self._batches.setdefault(key, [])
        store.write_cell(name, FAST_ACCEPTED[vote], forced=not batch)  # a 2a is ballot 0
        batch.append((txn, rm, ballot, vote))  # first: a free force flushes inline
        if len(batch) == 1:
            self._after_sync(self._flush, key)

    def _flush(self, key) -> None:
        """One batch's force has landed: answer its leader."""
        accepts = self._batches.pop(key)
        if key[0] == self.pid:
            self._note_accepted(self.pid, accepts)
        else:
            self.processor.send(key[0], "px-accepted", {"accepts": accepts})

    def _note_accepted(self, acceptor: int, accepts) -> None:
        """Leader: tally ``acceptor``'s 2b batch, instance by instance;
        fire a collection event when every instance of its transaction
        has a same-ballot majority."""
        for txn, rm, ballot, vote in accepts:
            entry = self._collect.get(txn)
            meta = self._meta.get(txn)
            if entry is None or meta is None or rm not in entry["instances"]:
                continue  # not collecting (already decided, or not ours)
            instances = entry["instances"]
            votes = entry["tallies"].setdefault(rm, {}).setdefault(ballot, {})
            votes[acceptor] = vote
            if instances[rm] is None and len(votes) >= meta["majority"]:
                instances[rm] = vote
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
        rms, acceptors, majority = meta["participants"], meta["acceptors"], meta["majority"]
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
            entries = [r["accepted"][rm] for r in promises if rm in r["accepted"]]
            votes[rm] = max(entries, key=lambda e: e[0])[1] if entries else "aborted"

        # Phase 2: accepts from a majority.
        accepted = 0
        if self.pid in acceptors and self._accept_locally(txn, ballot, votes):
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
            return sum(1 for r in results.values() if r is not None and r["ok"]) >= needed

        replies = yield from self.processor.scatter(
            others, kind, lambda _server: payload,
            timeout=self.config.access_timeout).gather(quorum)
        return [r for r in replies.values() if r is not None and r["ok"]]

    def _states(self, txn, ballot: int, rms):
        """The local acceptor's ``(rm, cell name, state)`` of ``rms``'
        instances (journalled: they survive its crash), or None when one
        has promised a ballot above ``ballot`` (preempted)."""
        cell = self.processor.store.cell
        states = [(rm, name, cell(name)) for rm in rms for name in [f"px:{txn}:{rm}"]]
        if any(state is not None and ballot < state[0] for _rm, _name, state in states):
            return None
        return states

    def _promise_locally(self, txn, ballot: int, rms):
        """Local-acceptor phase 1b for all instances (batched force);
        returns a reply-shaped dict, or None when preempted."""
        states = self._states(txn, ballot, rms)
        if states is None:
            return None
        write, accepted = self.processor.store.write_cell, {}
        for i, (rm, name, state) in enumerate(states):
            write(name, (ballot, *(state[1:] if state else (None, None))), forced=not i)
            if state is not None and state[1] is not None:
                accepted[rm] = state[1:]
        return {"ok": True, "accepted": accepted}

    def _accept_locally(self, txn, ballot: int, votes, forced: bool = True) -> bool:
        """Local-acceptor phase 2b for all instances (batched force;
        ``forced=False``: another record's force covers them all)."""
        states = self._states(txn, ballot, votes)
        write = self.processor.store.write_cell
        for i, (rm, name, _state) in enumerate(states or ()):
            state = (ballot, ballot, votes[rm]) if ballot else FAST_ACCEPTED[votes[rm]]
            write(name, state, forced=forced and not i)
        return states is not None

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def handlers(self) -> Mapping[str, Callable]:
        """Paxos Commit's participant- and acceptor-side message kinds."""
        return {
            "prepare": self._handle_prepare,
            "release": self._handle_release,
            "px-accept": lambda message: self._accept(message.payload),
            "px-accepted": lambda message: self._note_accepted(
                message.src, message.payload["accepts"]),
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
        self._cast_vote(txn, "prepared" if verdict is None else "aborted", payload)

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
        reply = self._promise_locally(payload["txn"], payload["ballot"], payload["rms"])
        if reply is None:
            self.processor.reply(message, "px-p1-reply", {"ok": False})
        else:
            self._after_sync(self.processor.reply, message, "px-p1-reply", reply)

    def _handle_px_p2(self, message) -> None:
        """Acceptor phase 2b (remote): all-instance accept + one
        batched force before the reply."""
        payload = message.payload
        if self._accept_locally(payload["txn"], payload["ballot"], payload["votes"]):
            self._after_sync(self.processor.reply, message, "px-p2-reply", {"ok": True})
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
            outcome = ("commit" if all(v == "prepared" for v in votes.values()) else "abort")
            if self.tracer is not None:
                self.tracer.emit("txn.resolve", pid=self.pid, txn=str(txn), outcome=outcome)
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
                votes = yield from self._lead(txn, meta, attempt * BALLOT_STRIDE + self.pid)
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
        self._batches.clear()
