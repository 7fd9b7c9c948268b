"""The common replica control interface and the one copy server.

Every protocol (the paper's virtual partitions protocol and all
baselines) plugs into the same transaction layer through this
interface, so the benchmark harness can swap protocols while keeping
workload, failures, concurrency control, atomic commit *and* the copy
server identical — the paired comparison the paper's cost claims call
for.

Each protocol adds ``logical_read(obj, ctx)`` and ``logical_write(obj,
value, ctx)``, *generators* (simulation processes use ``yield from``)
that raise :class:`~repro.core.errors.AccessAborted` on failure.
``ctx`` is the transaction context supplied by the transaction
manager; protocols record participants and partition ids into it so
commit-time validation (rule R4 and its weakened variant) can run.
The transaction counts each logical access as it enters.

Availability is one rule, ``available(obj, write)``, a predicate that
sends nothing: the copies this processor reaches in the live graph
hold ``thresholds(obj)[write]`` votes (``vote_weight``).  The default
pair is ROWA's ``(1, total)``; a quorum protocol overrides the pair or
the votes.  The views (virtual partitions, the naive strawman) judge
R1 over their view instead.

Both sides of a physical access live here.  The client side is one
walk, ``_gather``: ask copies in order until those that served hold
the votes the access needs — Fig. 10's read-one (``_read_one``), Fig.
11's write-all (``_write_all``) and the quorum waves.  A protocol picks
the copies and the request's stamp, and supplies ``_view_holds`` and
``_silenced``, the rules for a silent copy.  The
copy server is Fig. 12's Physical-Access shape: a gate, a refusal
check, CC admission, then the before-image, the store write and its
priced journal append; a protocol supplies ``_gate``, ``_refusal`` and
``_write_date``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from ..analysis.history import LogicalAccess, LogicalOp, PhysicalOp
from ..cc.factory import make_cc
from ..commit import make_commit
from ..core.errors import AccessAborted
from ..core.views import nearest_first

#: payload reasons a server may refuse a physical access (or a vote) with
REJECT_LOCK_TIMEOUT = "lock-timeout"
REJECT_NO_COPY = "no-copy"
REJECT_IN_DOUBT = "in-doubt"
REJECT_TXN_LOST = "txn-lost"
REJECT_WRONG_PARTITION = "wrong-partition"
REJECT_POISONED = "txn-poisoned"
#: the request was routed on a placement epoch that a concurrent
#: reshard has since flipped (or reached a processor that retired its
#: copy): the client must abort and retry on the new placement
REJECT_STALE_PLACEMENT = "stale-placement"


@dataclass
class ProtocolMetrics:
    """Counters every protocol maintains.

    Inside a cluster every processor's protocol counts into one shared
    object, ``Cluster.metrics``.
    """

    logical_reads: int = 0
    logical_writes: int = 0
    physical_read_rpcs: int = 0
    physical_write_rpcs: int = 0
    #: reads issued only to learn version numbers (quorum writes)
    version_collect_rpcs: int = 0
    local_reads: int = 0
    read_aborts: int = 0
    write_aborts: int = 0
    vp_created: int = 0
    vp_joined: int = 0
    recoveries: int = 0
    transfer_units: int = 0
    #: §6 log catch-ups that fell back to a full-object transfer
    #: because the source had compacted past the requester's date
    catchup_fallbacks: int = 0
    #: coordinator decision-log entries retired from memory once their
    #: decide fan-out left (the WAL record stays for crash replay)
    decisions_retired: int = 0
    #: copies installed on this processor by the reshard engine
    reshard_installs: int = 0
    #: copies retired from this processor after a reshard flip
    reshard_retires: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)
    #: per-resolution in-doubt dwell times (prepared -> resolved, in
    #: sim time): the commit protocol's blocking window, measured
    in_doubt_dwell: List[float] = field(default_factory=list)

    def abort(self, kind: str, reason: str) -> None:
        if kind == "r":
            self.read_aborts += 1
        else:
            self.write_aborts += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


class ReplicaControlProtocol:
    """One instance runs on each processor.

    The base owns what every protocol shares: the per-processor state
    below, the copy server (``read`` / ``write``), the atomic-commit
    backend (``self.commit``, chosen by ``ProtocolConfig.commit_backend``)
    with its message kinds, the ``prepare_commit`` / ``end_transaction``
    path through it, and the crash and recover hooks.  A subclass
    serves its own request kinds and calls ``super().attach()``.

    The copy server's rules default to the baselines': no gate, the
    ``no-copy`` and ``in-doubt`` refusals, and the request's date (else
    the copy's own); the virtual partitions protocol overrides them.
    The backend calls back into its host (``repro.commit.base``):
    ``_vote`` says no only to a transaction this copy lost;
    ``_apply_decision`` undoes or keeps the before-images here; the
    ``_r4_screen`` and ``_force_aborted`` defaults raise no objection —
    the virtual partitions protocol overrides them and ``_vote``.
    Decisions go to ``history`` from the backend itself.
    """

    #: short identifier used in benchmark tables
    name: str = "abstract"

    #: per-processor :class:`~repro.client.lease.LeaseTable`; installed
    #: by the first leased :class:`~repro.client.session.ClientSession`
    #: on this processor, None otherwise (the default — no lease code
    #: runs on any protocol path)
    lease_table = None

    #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
    tracer = None

    def __init__(self, processor, placement, config, history, latency,
                 all_pids: Iterable[int]):
        self.processor = processor
        self.pid = processor.pid
        self.sim = processor.sim
        self.placement = placement
        self.config = config
        self.history = history
        self.all_pids = frozenset(all_pids)
        self._latency = latency
        self.cc = make_cc(config, self.sim, label=f"p{self.pid}.cc")
        self.metrics = ProtocolMetrics()
        #: txn -> {obj: (value, date, version)} this copy held before
        #: the transaction's first write to it
        self._before_images: dict = {}
        #: the atomic-commit backend: prepare round, decision log,
        #: decide fan-out, in-doubt resolution (see repro.commit)
        self.commit = make_commit(config.commit_backend, self)

    def attach(self) -> None:
        """Register the copy server, the commit backend's kinds and the
        crash/recover hooks on the processor.

        Called exactly once, before the simulation starts.
        """
        processor = self.processor
        processor.serve_spawned("read", self._admit)
        processor.serve_spawned("write", self._admit)
        for kind, handler in self.commit.handlers().items():
            processor.serve(kind, handler)
        processor.on_crash(self._on_crash)
        processor.on_recover(self._on_recover)

    def _on_crash(self) -> None:
        """Volatile state vanishes; dirty uncommitted writes are undone.

        Undoing at crash time models the recovery-time undo pass a WAL
        would perform before the node serves anything again.  In-doubt
        transactions (we voted yes in their prepare round) are exempt:
        their prepare record and before-images are force-written, so
        the undo/redo choice is deferred until the decision is learned
        — rolling them back here could erase a committed write.  The
        fresh CC no longer guards their writes: VP's Update-Copies and
        the baselines' ``in-doubt`` refusal each keep off such a copy.
        The backend's crash hook runs first, so a doubt it drops (a 2PC
        share that wrote nothing logs none) is not honoured here.
        """
        self.commit.on_crash()
        for txn in sorted(self._before_images, key=repr):
            if txn not in self.commit.in_doubt:
                for obj, image in self._before_images.pop(txn).items():
                    self.processor.store.install(obj, *image)
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")

    def _on_recover(self) -> None:
        self.commit.on_recover()

    # ------------------------------------------------------------------
    # copies and votes: the order a walk visits copies in, and how many
    # votes an access needs
    # ------------------------------------------------------------------

    def distance(self, pid: int) -> float:
        """Expected delay to ``pid``; rule R2 reads the minimum."""
        return self._latency.distance(self.pid, pid)

    def _nearest(self, obj: str, among: Iterable[int] | None = None) -> list:
        """``obj``'s copy holders (those in ``among``), nearest first."""
        weights = self.placement.weights(obj)
        return nearest_first(weights, weights if among is None else among,
                             self.distance)

    def vote_weight(self, obj: str, pid: int) -> int:
        """Votes held by ``pid``'s copy of ``obj``: its placement weight."""
        return self.placement.weight(obj, pid)

    def _votes(self, obj: str, pids: Iterable[int]) -> int:
        """The votes the copies of ``obj`` on ``pids`` hold together."""
        return sum(self.vote_weight(obj, p) for p in pids)

    def thresholds(self, obj: str) -> Tuple[int, int]:
        """``(r, w)``: the votes a read and a write of ``obj`` need —
        one copy for a read, every copy for a write (ROWA)."""
        return 1, self._votes(obj, self.placement.copies(obj))

    def available(self, obj: str, write: bool) -> bool:
        """Omniscient availability, for benchmarks: do the copies this
        processor reaches in the live graph hold the votes the access
        needs?"""
        graph = self.processor.network.graph
        reached = self._votes(obj, (q for q in self.placement.copies(obj)
                                    if graph.has_edge(self.pid, q)))
        return reached >= self.thresholds(obj)[write]

    # ------------------------------------------------------------------
    # the copy server: Fig. 12's Physical-Access, for every protocol
    # ------------------------------------------------------------------
    # Run at the request's delivery event (``serve_spawned``); an access
    # becomes a process only if it waits — on the gate or a copy lock.
    # ``_refusal`` judges it before CC admission, and again only if it
    # waited (else ``sim.active_process is None``: nothing could move).

    def _admit(self, message):
        """Generator: admit the access — gate, refusal, CC — then serve
        it, or reply the refusal."""
        payload = message.payload
        obj, vpid, txn = payload["obj"], payload.get("v"), payload["txn"]
        write = message.kind == "write"
        while (wait := self._gate(obj, write)) is not None:
            yield wait
        # judged before the lock: a refused access takes no lock to give back
        reason = self._refusal(obj, vpid, txn, payload, write)
        if reason is None:
            begin = self.cc.begin_write if write else self.cc.begin_read
            granted, cc_reason = yield from begin(txn, payload.get("ts"), obj)
            if not granted:
                reason = cc_reason or REJECT_LOCK_TIMEOUT
            elif self.sim.active_process is not None:
                # a gate, flip or view change that landed during the
                # wait would leave this access outside it
                reason = self._refusal(obj, vpid, txn, payload, write)
        if reason is not None:
            self.processor.reply(message, message.kind + "-reply",
                                 {"ok": False, "reason": reason})
        elif write:
            self._serve_write(message)
        else:
            self._serve_read(message)

    def _serve_read(self, message) -> None:
        payload = message.payload
        obj, store = payload["obj"], self.processor.store
        value, date = store.read(obj)
        version = store.version(obj)
        self.history.record(PhysicalOp(self.sim.now, payload["txn"], "r", obj,
                                       self.pid, value, version, payload.get("v")))
        self.processor.reply(message, "read-reply", {
            "ok": True, "value": value, "date": date, "version": version})

    def _serve_write(self, message) -> None:
        payload = message.payload
        obj, txn, store = payload["obj"], payload["txn"], self.processor.store
        value, version = payload["value"], payload["version"]
        old_value, old_date = store.peek(obj)
        images = self._before_images.setdefault(txn, {})
        if obj not in images:
            images[obj] = (old_value, old_date, store.version(obj))
        store.write(obj, value, self._write_date(payload, old_date), version)
        self.history.record(PhysicalOp(self.sim.now, txn, "w", obj, self.pid,
                                       value, version, payload.get("v")))
        # Durability cost model: the write's journal append must land
        # before the copy acknowledges.  The write is already visible
        # locally (strict 2PL holds the lock), so only the ack waits.
        self.processor.after(self.config.storage_append_cost,
                             self.processor.reply, message, "write-reply", {"ok": True})

    def _gate(self, obj: str, write: bool):
        """The event an access to ``obj`` must wait on first, or None."""
        return None

    def _refusal(self, obj: str, vpid, txn, payload,
                 write: bool) -> str | None:
        """Why this copy may not serve the access (None: serve): it
        holds no copy, or it carries the write of an in-doubt
        transaction whose admission the crash hook's fresh CC forgot —
        nothing else keeps accesses off that write, which the resolver
        may yet undo."""
        if not self.processor.store.holds(obj):
            return REJECT_NO_COPY
        writers = {t for t in self.commit.in_doubt
                   if obj in self._before_images.get(t, ())}
        if writers and writers - self.cc.active_txns():
            return REJECT_IN_DOUBT
        return None

    def _write_date(self, payload, old_date):
        """The date a served write stamps on the copy: the request's,
        else the copy's own."""
        date = payload.get("date")
        return old_date if date is None else date

    # ------------------------------------------------------------------
    # the client walk: one vote-gathering loop, for every protocol
    # ------------------------------------------------------------------
    # ``stamp`` is what a protocol adds to each request (VP: the view
    # ``v`` and the placement epoch ``pe``); ``v`` is also the view the
    # access was issued in, the one ``_view_holds`` judges.

    def _gather(self, obj: str, kind: str, request, candidates: list,
                need: int | None = None, widen=None, tally=None):
        """Generator: send ``request`` to ``candidates`` in order until
        the copies that served hold ``need`` votes.

        Each wave is the fewest next candidates whose votes could reach
        ``need``; after a wave that falls short, ``widen(reason)`` (the
        wave's last failure) says whether another wave goes — None:
        always.  With ``need=None`` every candidate gets the request in
        one wave and no vote is looked up.  ``tally(wave)`` counts each
        wave as it leaves.  Returns ``({server: reply}, {server:
        reason})`` — the copies that served, and those that refused or
        stayed silent (``"no-response"``) — each in send order."""
        served, failed = {}, {}
        processor, timeout = self.processor, self.config.access_timeout
        votes = sent = 0
        end = len(candidates)
        while sent < end:
            if need is None:
                wave, sent = candidates, end
            else:  # ``votes`` counts the wave's copies until they fail
                first = sent
                while sent < end and votes < need:
                    votes += self.vote_weight(obj, candidates[sent])
                    sent += 1
                wave = candidates[first:sent]
            if tally is not None:
                tally(wave)
            results = yield from processor.scatter(
                wave, kind, lambda _server: request, timeout=timeout).gather()
            for server, reply in results.items():
                if reply is not None and reply["ok"]:
                    served[server] = reply
                else:
                    failed[server] = reason = (
                        "no-response" if reply is None else reply["reason"])
                    if need is not None:
                        votes -= self.vote_weight(obj, server)
            if need is None or votes >= need or (
                    widen is not None and sent < end and not widen(reason)):
                break
        return served, failed

    def _tally_reads(self, wave: list) -> None:
        """Count a wave of data reads, and this processor's own copy."""
        metrics = self.metrics
        metrics.physical_read_rpcs += len(wave)
        if self.pid in wave:
            metrics.local_reads += 1

    def _tally_writes(self, wave: list) -> None:
        self.metrics.physical_write_rpcs += len(wave)

    def _read_one(self, obj: str, ctx, candidates: list, last_reason: str,
                  **stamp):
        """Generator: read ``obj`` at the first of ``candidates`` that
        answers (Fig. 10): a walk for one vote.  Silence widens it to
        the next copy while the read's view holds; a refusal ends it — a
        partition mismatch would repeat elsewhere, a lock timeout is a
        probable deadlock to break.  Returns the served reply; an abort
        carries the refusal, ``"no-response"``, or ``last_reason`` if
        there was no candidate."""
        vpid = stamp.get("v")
        request = {"obj": obj, "txn": ctx.txn_id, "ts": ctx.timestamp,
                   **stamp}
        served, failed = yield from self._gather(
            obj, "read", request, candidates, 1,
            lambda reason: reason == "no-response" and self._view_holds(vpid),
            self._tally_reads)
        for server, payload in served.items():
            self._record_logical(ctx, "r", obj, payload["value"],
                                 payload["version"], (server,), **stamp)
            ctx.note_access("r", obj, server, vpid)
            ctx.read_versions[obj] = (payload["version"], self.sim.now)
            return payload
        self._fail(obj, "r", next(reversed(failed.values()), last_reason), vpid)

    def _write_all(self, obj: str, value: Any, ctx, targets: list,
                   **stamp):
        """Generator: write ``obj`` at every copy in ``targets`` (Fig.
        11).  Each must acknowledge, or the write — and its transaction
        — aborts with its first failing target's reason."""
        vpid = stamp.get("v")
        version = ctx.next_version()
        request = {"obj": obj, "value": value, "txn": ctx.txn_id,
                   "ts": ctx.timestamp, "version": version, **stamp}
        served, failed = yield from self._gather(
            obj, "write", request, targets, tally=self._tally_writes)
        for server in served:
            ctx.note_access("w", obj, server, vpid)
        if failed:
            reason = next(iter(failed.values()))
            ctx.poison(f"write {obj!r} failed at {sorted(failed)}: {reason}")
            self._fail(obj, "w", reason, vpid)
        self._record_logical(ctx, "w", obj, value, version, tuple(targets),
                             **stamp)

    def _record_logical(self, ctx, kind: str, obj: str, value, version,
                        targets=(), v=None, pe=0) -> None:
        """Report a logical access to ``history``: the copies it used,
        and the view and placement epoch it was stamped with."""
        self.history.record(LogicalAccess(
            LogicalOp(self.sim.now, ctx.txn_id, kind, obj, value, version),
            self.pid, v, targets, pe))

    def _fail(self, obj: str, kind: str, reason: str, vpid=None):
        """Abort the access with ``reason``; silence while the access's
        view holds is news of a failure (``_silenced``)."""
        if reason == "no-response" and self._view_holds(vpid):
            self._silenced()
        self.metrics.abort(kind, reason)
        raise AccessAborted(obj, reason)

    def _view_holds(self, vpid) -> bool:
        """Is the view an access was issued in still this processor's?
        While it is, a silent copy moves the read on to the next one."""
        return True

    def _silenced(self) -> None:
        """A copy stayed silent in the access's own view."""

    def _vote(self, txn, payload) -> str | None:
        """None (yes) unless the transaction is lost here.  A served
        access holds its admission until ``finish``; only the crash
        hook's fresh CC forgets it early — and that hook also restored
        the before-images, so a yes would commit a lost write."""
        return None if txn in self.cc.active_txns() else REJECT_TXN_LOST

    def _apply_decision(self, txn, outcome: str) -> None:
        """The decision reached this copy: undo its writes on abort,
        invalidate its leases on commit, and release the transaction."""
        store = self.processor.store
        images = self._before_images.pop(txn, {})
        if outcome == "abort":
            for obj, (value, date, version) in images.items():
                # the holds() guard: a reshard may have retired this
                # copy after the transaction resolved here but before
                # the (delayed) decide reached us — nothing to restore
                if store.holds(obj):
                    store.install(obj, value, date, version)
        elif images and self.lease_table is not None:
            # the commit fan-out doubles as lease invalidation: every
            # copy holder (and the coordinator) applies the decision,
            # so any lease it granted on the object is now stale
            for obj in images:
                self.lease_table.invalidate(obj)
        self.commit.note_resolved(txn)
        self.cc.finish(txn, outcome)

    def prepare_commit(self, ctx: Any):
        """Generator: the voting round — validate that ``ctx``'s
        transaction may commit.

        Raises :class:`~repro.core.errors.TransactionAborted` if not
        (e.g. rule R4: a participant joined another partition).
        """
        return self.commit.prepare_commit(ctx)

    def end_transaction(self, ctx: Any, outcome: str):
        """Generator: decide ``outcome`` (``"commit"`` or ``"abort"``)
        and apply it at all participants, which release their locks."""
        return self.commit.end_transaction(ctx, outcome)

    def _r4_screen(self, ctx) -> str | None:
        """Why the coordinator may not start ``ctx``'s prepare round."""
        return None

    def _force_aborted(self, txn) -> bool:
        """Was ``txn`` force-aborted here while its votes were out?"""
        return False
