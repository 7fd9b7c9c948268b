"""The atomic-commit backend interface.

Every replica control protocol delegates the whole atomic-commit phase
— the prepare round, the decision log, the decide fan-out, and
in-doubt resolution — to a backend selected by
:attr:`~repro.core.config.ProtocolConfig.commit_backend`:

* ``"2pc"`` — classic presumed-abort two-phase commit
  (:class:`~repro.commit.two_phase.TwoPhaseCommit`), where the
  coordinator's decision log is the single authority a prepared
  participant can learn the outcome from; its crash blocks them.
  The baselines commit only through this one.
* ``"paxos"`` — Gray & Lamport's *Paxos Commit*
  (:class:`~repro.commit.paxos.PaxosCommit`), where each participant's
  vote is a Paxos consensus instance replicated to the transaction's
  acceptors (the coordinator's view), so any node reaching a majority
  of them can finish the transaction.

2PC is Paxos Commit with F = 0: the two differ only in how a vote gets
chosen.  :class:`AtomicCommit` is what they share — the prepare
payload, the yes-vote intake (:meth:`_prepared`), the prepare force
point every yes vote goes through (:meth:`_force_prepare`, the
coordinator's own too), the decide and fan-out (:meth:`_decide`; 2PC
forces neither an abort nor a read-only commit) and the resolver kick.
The backend owns the commit-phase state (decision log, in-doubt set,
resolvers); the host owns the rest: before-images, the R4 vote,
decision application.

The host (:class:`~repro.protocols.base.ReplicaControlProtocol`)
provides ``processor``, ``pid``, ``sim``, ``config``, ``metrics``,
``tracer``, ``history``, ``_vote(txn, payload)``,
``_apply_decision(txn, outcome)`` and two checks that raise no
objection by default: ``_r4_screen(ctx)`` and ``_force_aborted(txn)``.
Paxos Commit also reads ``state``.  Every decision is journalled and
reported to ``history`` by one call, :meth:`AtomicCommit._log_decision`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

from ..analysis.history import Decision


class AtomicCommit:
    """One commit backend instance per protocol instance (per processor).

    The same object plays both commit-protocol roles: the coordinator
    side (:meth:`prepare_commit` / :meth:`end_transaction`, driven by
    the transaction manager) and the participant side (the message
    handlers from :meth:`handlers`, which the host registers with
    :meth:`~repro.node.processor.Processor.serve`).

    A backend supplies the generators ``prepare_commit(ctx)`` (None once
    every participant is prepared, else it raises ``TransactionAborted``),
    ``end_transaction(ctx, outcome)`` and ``_resolve_in_doubt(txn)``, plus
    ``handlers()`` (its ``{kind: handler}`` map; no handler waits) and
    ``on_crash()`` (drop volatile commit state).
    """

    #: short identifier, matches ``ProtocolConfig.commit_backend``
    name: str = "abstract"

    def __init__(self, host: Any):
        self.host = host
        self.processor = host.processor
        self.pid: int = host.pid
        self.sim = host.sim
        self.config = host.config
        #: participant side: txns we voted yes for -> coordinator pid
        self.in_doubt: Dict[Any, int] = {}
        #: sim-time each in-doubt registration happened (dwell metric)
        self._in_doubt_since: Dict[Any, float] = {}
        #: txns with a live resolver task (idempotence guard)
        self.resolving: set = set()
        #: ``_after_sync(fn, *args)``: call ``fn(*args)`` once the forced
        #: write just made has landed (a ``storage_sync_cost`` timer that
        #: a crash cancels); a partial, so no frame of its own
        self._after_sync = partial(self.processor.after,
                                   self.config.storage_sync_cost)

    # the cluster rebinds these on the host after the backend is built
    @property
    def metrics(self):
        return self.host.metrics

    @property
    def tracer(self):
        return self.host.tracer

    # -- coordinator side ---------------------------------------------------

    def _prepare_payload(self, ctx) -> dict:
        """What a participant votes on: the transaction, the partitions
        and placement epochs its accesses ran in, its participants."""
        objects = sorted(ctx.objects)
        return {
            "txn": ctx.txn_id,
            "vpids": sorted(ctx.vpids),
            "objects": objects,
            "participants": sorted(ctx.participants),
            # placement epochs each access routed on (reshard R4 stamps)
            "epochs": {obj: ctx.placement_epochs.get(obj, 0)
                       for obj in objects},
        }

    def _decide(self, txn, outcome: str, participants, forced=True):
        """Generator: the decider's force point, then the fan-out.

        A participant may lose the decide to a cut and ask for (or
        re-derive) the outcome later, so no decide leaves before a
        forced decision record (``forced`` as in :meth:`_log_decision`)
        is durable; ``participants`` are sent to in order, this
        processor applying its own share in place."""
        self._log_decision(txn, outcome, forced)
        sync_cost = self.config.storage_sync_cost
        if forced and sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        for server in participants:
            if server == self.pid:
                self.host._apply_decision(txn, outcome)
            else:
                self.processor.send(server, "release",
                                    {"txn": txn, "outcome": outcome})
        self.metrics.decisions_retired += 1

    def _log_decision(self, txn, outcome: str, forced=True) -> None:
        """Journal ``outcome`` (forced: a force point; None: not at all)
        and report it."""
        if forced is not None:
            self.processor.store.record_decision(txn, outcome, forced=forced)
        self.host.history.record(Decision(self.sim.now, self.pid, txn,
                                          outcome))

    # -- participant side ---------------------------------------------------

    def _prepared(self, txn, coordinator: int, objects) -> float:
        """A yes vote: ``txn`` is in doubt here until its outcome lands.

        The decide watchdog (a kernel call entry, never cancelled)
        starts a resolver if no decide arrived by then — lost to the
        network, a cut, or a coordinator crash.  Returns what
        :meth:`_force_prepare` returns."""
        self.note_in_doubt(txn, coordinator)
        self.sim.call(self.config.access_timeout, self.kick_resolver, txn)
        return self._force_prepare(txn, objects)

    def _force_prepare(self, txn, objects) -> float:
        """The participant's force point, for every yes vote — a remote
        one through :meth:`_prepared`, the coordinator's own in place:
        the vote waits out the sync it returns, or a crash could forget
        it."""
        self.processor.store.record_prepare(txn, objects)
        return self.config.storage_sync_cost

    # -- lifecycle hooks (called from the host's crash/recover hooks) ------

    def on_recover(self) -> None:
        """Restart resolution for whatever is still in doubt."""
        for txn in sorted(self.in_doubt, key=repr):
            self.kick_resolver(txn)

    def kick_resolver(self, txn) -> None:
        """Begin resolving one in-doubt transaction (idempotent via
        ``resolving``); called by watchdogs, partition changes, and
        recovery.  A crashed processor must not grow tasks — its
        ``on_recover`` restarts resolvers for what is still in doubt.
        """
        if (self.processor.alive and txn in self.in_doubt
                and txn not in self.resolving):
            self.resolving.add(txn)
            if self.tracer is not None:
                self.tracer.emit("txn.indoubt", pid=self.pid, txn=str(txn),
                                 coordinator=self.in_doubt[txn])
            self.processor.spawn(f"resolve{txn}", self._resolver(txn))

    def _resolver(self, txn):
        try:
            # The one exception to "a process acts in the call that
            # creates it" (sim/process.py): look only after this
            # instant's deliveries.  The decide watchdog is dispatched
            # first in the very instant a timed-out coordinator's abort
            # lands (both access_timeout + δ after the prepare left) and
            # nothing here says a decide is still due, so the check
            # ``txn in in_doubt`` waits for it before asking anybody.
            yield self.sim.timeout(0)
            yield from self._resolve_in_doubt(txn)
        finally:
            self.resolving.discard(txn)

    # -- shared bookkeeping -------------------------------------------------

    def note_in_doubt(self, txn, coordinator: int) -> None:
        """Register a yes-vote: ``txn`` may no longer be aborted
        unilaterally here until its outcome is learned."""
        self.in_doubt[txn] = coordinator
        self._in_doubt_since.setdefault(txn, self.sim.now)

    def note_resolved(self, txn) -> None:
        """The outcome reached this participant; record the dwell."""
        if self.in_doubt.pop(txn, None) is not None:
            since = self._in_doubt_since.pop(txn, None)
            if since is not None:
                self.metrics.in_doubt_dwell.append(self.sim.now - since)
