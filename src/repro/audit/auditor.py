"""The runtime invariant auditor: S1–S3, R1/R3/R5 and commit safety, live.

The end-of-run checkers (``analysis.one_copy``, the property tests)
judge a finished history; the auditor asserts the paper's invariants *as
events happen*, so a violation is caught at the instant it occurs and
carries the trace context that produced it — which is what a campaign
hunter needs to shrink a failing schedule into a story.

The auditor is pure observation: a reader of the records protocol code
reports to :class:`~repro.analysis.history.History`, one handler per
record type.  It never mutates protocol state, draws no randomness,
and schedules no events — an audited run is event-for-event identical
to an unaudited one.

What it checks, mapped to the paper:

* **S1** (view consistency): every virtual partition commits exactly one
  view — a second join of the same vpid with a different view is flagged.
* **S2** (reflexivity): a processor only joins views containing itself.
* **S3** (serializability of partitions): if ``p ∈ members(v)`` and
  ``p ∈ view(w)`` for ``v ≺ w``, then ``p`` departed ``v`` no later than
  the first join of ``w``.  Same-instant races are held as *pending* and
  resolved by the matching depart; ``finalize()`` flags the leftovers.
* **R1** (accessibility): every logical access happens in a partition
  whose view makes the object accessible (weighted majority).
* **R3** (write all copies): a logical write's target set is exactly the
  object's copies inside the partition's view.
* **R5 + view match** (physical access): a server never serves a copy
  that is update-locked, never serves a partition it is not currently
  committed to, and only serves objects it holds a copy of.
* **Commit safety** (backend-agnostic): a decider's outcome never
  flips once decided, and all processors apply the same outcome for a
  transaction — the contract of every atomic-commit backend, whether
  the decider is a 2PC coordinator or a Paxos Commit recovery leader.
* **Lease staleness** (client tier): a lease-served read at time ``t``
  with bound ``B = L + Δ`` must return a version at least as new as
  the newest version whose commit was applied anywhere by ``t − B``.
  Version tokens carry no order, so the auditor orders them by
  first-apply time (the committed-write timeline); it also
  flags serving past the lease's expiry and grants violating the
  ``L ≤ π`` rule.
* **Placement epochs** (online resharding): R1/R3 are judged against
  the placement the access actually routed on — the live entry when
  the access's epoch stamp matches, the weights recorded at the flip
  otherwise — so a legitimate access racing a migration flip is not a
  false positive.  A flip must advance the object's epoch by exactly
  one (``on_reshard_flip``), a copy may only be installed on a live or
  migration-pending holder (``on_copy_install``, the *no-orphan-copy*
  invariant), and a copy may only be retired once the live placement
  no longer routes to it (``on_copy_retire``).  An *unguarded* flip —
  one that rewrites the entry without staging or an epoch bump — is
  convicted by exactly these checks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.history import (
    CommittedWrite, CopyInstall, CopyRetire, CrashDepart, Decision, DecisionApplied, Depart,
    Join, LeaseGrant, LeaseRead, LogicalAccess, PhysicalOp, ReshardFlip)


@dataclass(frozen=True)
class AuditViolation:
    """One invariant violation with the trace context that led to it."""

    time: float
    invariant: str
    pid: Optional[int]
    detail: str
    context: Tuple = ()

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "invariant": self.invariant,
            "pid": self.pid,
            "detail": self.detail,
            "context": [dict(c) for c in self.context],
        }

    def __str__(self) -> str:
        return f"[t={self.time:.2f}] {self.invariant} @p{self.pid}: {self.detail}"


def _seen(event: str, fact, **fields) -> dict:
    return {"event": event, "time": fact.time, "pid": fact.pid, **fields}


#: how each record reads in a violation's context — formatted only
#: when a violation fires, from the records the context ring holds
_CONTEXT = {
    Join: lambda f: _seen("join", f, vpid=str(f.vpid), view=sorted(f.view)),
    Depart: lambda f: _seen("depart", f, vpid=str(f.vpid)),
    LogicalAccess: lambda f: {
        "event": "logical", "time": f.op.time, "pid": f.pid,
        "txn": str(f.op.txn), "kind": f.op.kind, "obj": f.op.obj,
        "vpid": str(f.vpid)},
    PhysicalOp: lambda f: {
        "event": "physical", "time": f.time, "pid": f.copy_pid,
        "txn": str(f.txn), "kind": f.kind, "obj": f.obj,
        "vpid": str(f.vpid)},
    ReshardFlip: lambda f: _seen("reshard-flip", f, obj=f.obj,
                                 old_epoch=f.old_epoch,
                                 new_epoch=f.new_epoch),
    CopyInstall: lambda f: _seen("reshard-install", f, obj=f.obj),
    CopyRetire: lambda f: _seen("reshard-retire", f, obj=f.obj),
    Decision: lambda f: _seen("decision", f, txn=str(f.txn),
                              outcome=f.outcome),
    DecisionApplied: lambda f: _seen("apply", f, txn=str(f.txn),
                                     outcome=f.outcome),
    CommittedWrite: lambda f: _seen("commit-write", f, obj=f.obj,
                                    version=str(f.version)),
    LeaseGrant: lambda f: _seen("lease-grant", f, obj=f.obj,
                                version=str(f.version), duration=f.duration),
    LeaseRead: lambda f: _seen("lease-read", f, obj=f.obj,
                               version=str(f.version), bound=f.bound),
}
_CONTEXT[CrashDepart] = _CONTEXT[Depart]

#: how many of the last records a violation's context shows
CONTEXT_SIZE = 24


class InvariantAuditor:
    """Continuously asserts S1–S3, R1/R3/R5 and commit safety."""

    def __init__(self, placement=None):
        self.placement = placement
        self.violations: list[AuditViolation] = []
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: ``{pid: ReplicaState}`` of the audited servers (set by the
        #: cluster); accesses and decisions of any other pid (a
        #: baseline's) are not audited
        self.states: dict = {}
        #: the last records read (formatted only by :meth:`_violate`)
        self._context: deque = deque(maxlen=CONTEXT_SIZE)
        # view-protocol state (S1-S3)
        self._views: dict = {}          # vpid -> committed view
        self._members: dict = {}        # vpid -> pids that joined it
        self._first_join: dict = {}     # vpid -> time of first join
        self._first_depart: dict = {}   # (pid, vpid) -> first depart time
        self._pending_s3: list = []     # (new_vpid, join_time, pid, old_vpid)
        # commit-outcome state
        self._coord_log: dict = {}      # (pid, txn) -> last logged decision
        self._decided: dict = {}        # txn -> first commit/abort decided
        self._applied: dict = {}        # txn -> first outcome applied anywhere
        # client-tier lease state: per-object committed-version timeline
        self._commit_times: dict = {}   # obj -> [first-apply time, ...]
        self._commit_index: dict = {}   # (obj, version) -> timeline index
        # reshard state: weights each retired epoch routed on
        self._placement_history: dict = {}  # (obj, epoch) -> {pid: weight}
        #: one handler per record type History hands on
        self._handlers = {
            Join: self.on_join, Depart: self.on_depart,
            CrashDepart: self.on_depart,
            LogicalAccess: self.on_logical_access,
            PhysicalOp: self.on_physical_access,
            ReshardFlip: self.on_reshard_flip,
            CopyInstall: self.on_copy_install,
            CopyRetire: self.on_copy_retire,
            Decision: self.on_decision,
            DecisionApplied: self.on_decision_applied,
            CommittedWrite: self.on_committed_write,
            LeaseGrant: self.on_lease_grant, LeaseRead: self.on_lease_read,
        }

    def read(self, fact) -> None:
        """Judge one record :class:`~repro.analysis.history.History`
        handed on."""
        self._handlers[type(fact)](fact)

    # -- verdict ---------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def finalize(self) -> None:
        """Flag S3 obligations that never resolved (missing departs)."""
        for new_vpid, join_time, pid, old_vpid in self._pending_s3:
            depart = self._first_depart.get((pid, old_vpid))
            if depart is not None and depart <= join_time:
                continue
            self._violate(
                join_time, "S3", pid,
                f"in view of {new_vpid} but never departed {old_vpid} "
                f"(first join of {new_vpid} at {join_time})",
            )
        self._pending_s3 = []

    def report(self) -> str:
        if self.ok:
            return "auditor: all invariants held"
        return "\n".join(str(v) for v in self.violations)

    # -- view protocol (S1-S3) -------------------------------------------------

    def on_join(self, join: Join) -> None:
        self._context.append(join)
        time, pid, vpid, view = join
        seen = self._views.get(vpid)
        if seen is None:
            self._views[vpid] = view
            self._first_join[vpid] = time
            # S3 against every older partition already known
            for old_vpid, members in self._members.items():
                if not old_vpid < vpid:
                    continue
                for q in members & view:
                    self._require_depart(vpid, time, q, old_vpid)
        elif view != seen:
            self._violate(
                time, "S1", pid,
                f"{vpid} committed two views: {sorted(seen)} vs {sorted(view)}",
            )
        if pid not in view:
            self._violate(
                time, "S2", pid,
                f"joined {vpid} with view {sorted(view)} not containing itself",
            )
        # a late join of an old partition while a newer view includes us
        for newer, newer_view in self._views.items():
            if vpid < newer and pid in newer_view:
                self._require_depart(newer, self._first_join[newer], pid, vpid)
        self._members.setdefault(vpid, set()).add(pid)

    def on_depart(self, depart: Depart) -> None:
        self._context.append(depart)
        time, pid, vpid = depart
        self._first_depart.setdefault((pid, vpid), time)
        still_pending = []
        for pending in self._pending_s3:
            new_vpid, join_time, p, old_vpid = pending
            if (p, old_vpid) != (pid, vpid):
                still_pending.append(pending)
                continue
            first = self._first_depart[(pid, vpid)]
            if first > join_time:
                self._violate(
                    time, "S3", pid,
                    f"departed {old_vpid} at {first} after the first join "
                    f"of {new_vpid} at {join_time}",
                )
        self._pending_s3 = still_pending

    def _require_depart(self, new_vpid, join_time: float, pid: int,
                        old_vpid) -> None:
        depart = self._first_depart.get((pid, old_vpid))
        if depart is not None and depart <= join_time:
            return
        # the matching depart may still land at this same instant —
        # hold the obligation and let on_depart/finalize() resolve it
        self._pending_s3.append((new_vpid, join_time, pid, old_vpid))

    # -- accesses (R1/R3 logical, R5 + view match physical) --------------------

    def on_logical_access(self, access: LogicalAccess) -> None:
        op, pid, vpid, targets, epoch = access
        if pid not in self.states:
            return
        self._context.append(access)
        if self.placement is None:
            return
        view = self._views.get(vpid)
        if view is None:
            return  # a partition the auditor never saw committed; S-checks
        time, txn, kind, obj = op.time, op.txn, op.kind, op.obj
        # Judge against the placement the access routed on: an access
        # stamped with an epoch a migration has since flipped is aborted
        # by the R4 stamp check, not an R1/R3 violation.
        weights = self._weights_for(obj, epoch)
        in_view = sum(w for p, w in weights.items() if p in view)
        if 2 * in_view <= sum(weights.values()):
            self._violate(
                time, "R1", pid,
                f"txn {txn} {kind}({obj}) in {vpid} whose view {sorted(view)} "
                "does not make the object accessible",
            )
        if kind == "w":
            expected = set(weights) & set(view)
            if set(targets) != expected:
                self._violate(
                    time, "R3", pid,
                    f"txn {txn} wrote {obj} at {sorted(targets)}, R3 requires "
                    f"all in-view copies {sorted(expected)}",
                )

    def _weights_for(self, obj: str, epoch: int) -> dict:
        """The ``{pid: weight}`` entry the access routed on.

        Live placement when the stamp matches the object's current
        epoch; the weights recorded by the retiring flip otherwise.  A
        stale epoch with no recorded flip falls back to the live entry
        — exactly the pre-reshard behaviour.
        """
        if epoch != self.placement.epoch_of(obj):
            recorded = self._placement_history.get((obj, epoch))
            if recorded is not None:
                return recorded
        return dict(self.placement.weights(obj))

    def on_physical_access(self, op: PhysicalOp) -> None:
        """A served ``PhysicalOp``, judged against its server's live
        state."""
        state = self.states.get(op.copy_pid)
        if state is None:
            return
        self._context.append(op)
        time, pid, txn, kind, obj, vpid = (op.time, op.copy_pid, op.txn,
                                           op.kind, op.obj, op.vpid)
        if obj in state.locked:
            self._violate(
                time, "R5", pid,
                f"served {kind}({obj}) for txn {txn} while the copy is "
                "update-locked",
            )
        if not state.assigned or state.cur_id != vpid:
            current = state.cur_id if state.assigned else None
            self._violate(
                time, "view-match", pid,
                f"served {kind}({obj}) for partition {vpid} while committed "
                f"to {current}",
            )
        elif pid not in state.lview:
            self._violate(
                time, "S2", pid,
                f"assigned to {vpid} with view {sorted(state.lview)} not "
                "containing itself",
            )
        if self.placement is not None and pid not in self.placement.copies(obj):
            self._violate(
                time, "placement", pid,
                f"served {kind}({obj}) without holding a copy",
            )

    # -- resharding --------------------------------------------------------------

    def on_reshard_flip(self, flip: ReshardFlip) -> None:
        """A migration flipped ``obj``'s directory entry.

        Records the retiring epoch's weights so in-flight accesses
        stamped with it are judged against the placement they actually
        routed on, and convicts flips that skip the epoch bump or route
        to holders that never installed a copy.
        """
        self._context.append(flip)
        (time, pid, obj, old_weights, new_weights, old_epoch, new_epoch,
         installed) = flip
        self._placement_history[(obj, old_epoch)] = dict(old_weights)
        if new_epoch != old_epoch + 1:
            self._violate(
                time, "placement-epoch", pid,
                f"flip of {obj} moved the placement epoch {old_epoch} -> "
                f"{new_epoch}; a committed migration must advance it by "
                "exactly one",
            )
        ghosts = sorted(set(new_weights) - set(old_weights) - set(installed))
        if ghosts:
            self._violate(
                time, "reshard-install", pid,
                f"flip of {obj} routes to {ghosts} which never installed "
                "a copy",
            )

    def on_copy_install(self, install: CopyInstall) -> None:
        """A reshard materialized a copy of ``obj`` on ``pid``.

        The no-orphan-copy invariant: a copy may only appear on a
        processor the live placement routes to or a staged migration is
        about to — anything else is unreachable storage that R3 will
        never write and R5 will never refresh.
        """
        self._context.append(install)
        if self.placement is None:
            return
        time, pid, obj = install.time, install.pid, install.obj
        allowed = self.placement.copies(obj) | \
            self.placement.pending_copies(obj)
        if pid not in allowed:
            self._violate(
                time, "orphan-copy", pid,
                f"installed a copy of {obj} on a processor outside both "
                f"the live placement {sorted(self.placement.copies(obj))} "
                "and any staged migration",
            )

    def on_copy_retire(self, retire: CopyRetire) -> None:
        """A reshard released ``pid``'s copy of ``obj``."""
        self._context.append(retire)
        if self.placement is None:
            return
        time, pid, obj = retire
        if pid in self.placement.copies(obj):
            self._violate(
                time, "orphan-copy", pid,
                f"retired the copy of {obj} while the live placement "
                "still routes to it",
            )

    # -- atomic commit -----------------------------------------------------------

    def on_decision(self, decision: Decision) -> None:
        time, pid, txn, outcome = decision
        if pid not in self.states:
            return
        self._context.append(decision)
        key = (pid, txn)
        old = self._coord_log.get(key)
        if old in ("commit", "abort") and outcome != old:
            self._violate(
                time, "commit-decision", pid,
                f"coordinator flipped txn {txn}: {old} -> {outcome}",
            )
        self._coord_log[key] = outcome
        if outcome in ("commit", "abort"):
            first = self._decided.setdefault(txn, outcome)
            if first != outcome:
                self._violate(
                    time, "commit-decision", pid,
                    f"txn {txn} decided {outcome} after {first} elsewhere",
                )
            applied = self._applied.get(txn)
            if applied is not None and applied != outcome:
                self._violate(
                    time, "commit-decision", pid,
                    f"txn {txn} decided {outcome} after a processor already "
                    f"applied {applied}",
                )

    def on_decision_applied(self, applied: DecisionApplied) -> None:
        self._context.append(applied)
        time, pid, txn, outcome = applied
        first = self._applied.setdefault(txn, outcome)
        if first != outcome:
            self._violate(
                time, "commit-apply", pid,
                f"txn {txn} applied as {outcome} here but {first} elsewhere",
            )
        decided = self._decided.get(txn)
        if decided is not None and outcome != decided:
            self._violate(
                time, "commit-apply", pid,
                f"txn {txn} applied as {outcome}, coordinator logged {decided}",
            )

    # -- client-tier leases ------------------------------------------------------

    def on_committed_write(self, write: CommittedWrite) -> None:
        """A processor applied a commit that wrote ``obj``.

        First apply wins: the same (obj, version) lands at every copy
        holder, and the *earliest* apply is the moment the write could
        first be observed — the conservative anchor for the staleness
        check.  Strict 2PL orders writes of one object identically at
        every copy, so first-apply order is the version order.  Records
        arrive in sim-time order, so each timeline is sorted.
        """
        self._context.append(write)
        key = (write.obj, write.version)
        if key in self._commit_index:
            return
        timeline = self._commit_times.setdefault(write.obj, [])
        self._commit_index[key] = len(timeline)
        timeline.append(write.time)

    def on_lease_grant(self, grant: LeaseGrant) -> None:
        """A processor granted a lease; enforce the L <= pi rule."""
        self._context.append(grant)
        if grant.duration > grant.pi + 1e-9:
            self._violate(
                grant.time, "lease-rule", grant.pid,
                f"granted a {grant.duration}-lease on {grant.obj} with "
                f"pi={grant.pi}: the staleness derivation requires L <= pi",
            )

    def on_lease_read(self, read: LeaseRead) -> None:
        """A read was served from a lease; check expiry and staleness.

        The served version must be at least as new as the newest
        version committed (first applied anywhere) by ``time - bound``.
        A version absent from the timeline is the initial value, older
        than every committed write.
        """
        self._context.append(read)
        time, pid, obj, version, expires_at, bound = read
        if time > expires_at + 1e-9:
            self._violate(
                time, "lease-expired", pid,
                f"served {obj} from a lease that expired at {expires_at}",
            )
        timeline = self._commit_times.get(obj, [])
        horizon = time - bound
        # newest timeline index whose first-apply time is <= horizon
        newest_due = bisect_right(timeline, horizon) - 1
        served = self._commit_index.get((obj, version), -1)
        if served < newest_due:
            self._violate(
                time, "lease-staleness", pid,
                f"lease served {obj} version {version} (commit #{served}) "
                f"at t={time}, but commit #{newest_due} was applied at "
                f"{timeline[newest_due]} <= t - bound ({horizon}): the "
                f"value is staler than the bound {bound} allows",
            )

    # -- internals -------------------------------------------------------------

    def _violate(self, time: float, invariant: str, pid: Optional[int],
                 detail: str) -> None:
        violation = AuditViolation(
            time=time, invariant=invariant, pid=pid, detail=detail,
            context=tuple(_CONTEXT[type(fact)](fact)
                          for fact in self._context),
        )
        self.violations.append(violation)
        if self.tracer is not None:
            self.tracer.emit("audit.violation", pid=pid or 0,
                             invariant=invariant, detail=detail)

    def __repr__(self) -> str:
        return (f"InvariantAuditor(violations={len(self.violations)}, "
                f"views={len(self._views)})")
