"""The common replica control interface.

Every protocol (the paper's virtual partitions protocol and all
baselines) plugs into the same transaction layer through this
interface, so the benchmark harness can swap protocols while keeping
workload, failures, concurrency control and atomic commit identical —
the paired comparison the paper's cost claims call for.

Each protocol adds ``logical_read(obj, ctx)`` and ``logical_write(obj,
value, ctx)``, *generators* (simulation processes use ``yield from``)
that raise :class:`~repro.core.errors.AccessAborted` on failure, and
``available(obj, write)``, a predicate that sends nothing.  ``ctx`` is
the transaction context supplied by the transaction manager;
protocols record participants and partition ids into it so
commit-time validation (rule R4 and its weakened variant) can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from ..cc.factory import make_cc
from ..commit import make_commit


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
    below, the atomic-commit backend (``self.commit``, chosen by
    ``ProtocolConfig.commit_backend``) with its message kinds, the
    ``prepare_commit`` / ``end_transaction`` path through it, and the
    crash and recover hooks.  A subclass serves its own request kinds
    and calls ``super().attach()``.

    The backend calls back into its host (``repro.commit.base``):
    ``_vote`` and ``_apply_decision`` are the protocol's own; the
    ``_r4_screen`` and ``_force_aborted`` defaults here raise no
    objection — the virtual partitions protocol's views override them.
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
        """Register the commit backend's kinds and the crash/recover
        hooks on the processor.

        Called exactly once, before the simulation starts.
        """
        processor = self.processor
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
        the baselines' copy server each keep off such a copy themselves.
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
