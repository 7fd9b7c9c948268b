"""The common replica control interface and the one copy server.

Every protocol (the paper's virtual partitions protocol and all
baselines) plugs into the same transaction layer through this
interface, so the benchmark harness can swap protocols while keeping
workload, failures, concurrency control, atomic commit *and* the copy
server identical — the paired comparison the paper's cost claims call
for.

Each protocol adds ``logical_read(obj, ctx)`` and ``logical_write(obj,
value, ctx)``, *generators* (simulation processes use ``yield from``)
that raise :class:`~repro.core.errors.AccessAborted` on failure, and
``available(obj, write)``, a predicate that sends nothing.  ``ctx`` is
the transaction context supplied by the transaction manager;
protocols record participants and partition ids into it so
commit-time validation (rule R4 and its weakened variant) can run.

A physical access (a ``read`` or ``write`` request) is served here,
for every protocol, by Fig. 12's Physical-Access shape: a gate, a
refusal check, CC admission, then the before-image, the store write
and its priced journal append.  A protocol supplies only its rules:
``_gate``, ``_refusal`` and ``_write_date``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from ..analysis.history import PhysicalOp
from ..cc.factory import make_cc
from ..commit import make_commit

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
    ``_vote`` is the protocol's own; ``_apply_decision`` undoes or keeps
    the before-images here; the ``_r4_screen`` and ``_force_aborted``
    defaults raise no objection — the views override them.  Decisions
    go to ``history`` from the backend itself.
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
        """
        in_doubt = self.commit.in_doubt
        for txn in sorted(self._before_images, key=repr):
            if txn in in_doubt:
                continue
            for obj, (value, date, version) in self._before_images[txn].items():
                self.processor.store.install(obj, value, date, version)
        self._before_images = {
            txn: images for txn, images in self._before_images.items()
            if txn in in_doubt
        }
        # Backend-owned commit state: the 2PC decision log finalizes
        # undecided entries as the presumed abort; Paxos leaves them to
        # the acceptors.  Resolver bookkeeping is volatile either way.
        self.commit.on_crash()
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")

    def _on_recover(self) -> None:
        self.commit.on_recover()

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
