"""The runtime invariant auditor: S1–S3, R1/R3/R5 and commit safety, live.

The end-of-run checkers (``analysis.one_copy``, the property tests)
judge a finished history; the auditor asserts the paper's invariants *as
events happen*, so a violation is caught at the instant it occurs and
carries the trace context that produced it — which is what a campaign
hunter needs to shrink a failing schedule into a story.

The auditor is pure observation: hooks are one ``if auditor is not
None`` away from the hot paths, it never mutates protocol state, draws
no randomness, and schedules no events — an audited run is
event-for-event identical to an unaudited one.

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
  first-apply time (the ``on_committed_write`` timeline); it also
  flags serving past the lease's expiry and grants violating the
  ``L ≤ π`` rule.
* **Placement epochs** (online resharding): R1/R3 are judged against
  the placement the access actually routed on — the live entry when
  the access's epoch stamp matches, the weights recorded at the flip
  otherwise — so a legitimate access racing a migration flip is not a
  false positive.  A flip must advance the object's epoch by exactly
  one (``on_reshard_flip``), a copy may only be installed on a live or
  migration-pending holder (``on_copy_installed``, the *no-orphan-copy*
  invariant), and a copy may only be retired once the live placement
  no longer routes to it (``on_copy_retired``).  An *unguarded* flip —
  one that rewrites the entry without staging or an epoch bump — is
  convicted by exactly these checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple


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


class InvariantAuditor:
    """Continuously asserts S1–S3, R1/R3/R5 and commit safety."""

    def __init__(self, placement=None, context_size: int = 24):
        self.placement = placement
        self.violations: list[AuditViolation] = []
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: ``{pid: ReplicaState}`` of the audited servers (set by the cluster)
        self.states: dict = {}
        self._context: deque = deque(maxlen=context_size)
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

    # -- view-protocol hooks (wired through History) ---------------------------

    def on_join(self, *, time: float, pid: int, vpid: Any,
                view: FrozenSet[int]) -> None:
        self._note("join", time, pid, vpid=str(vpid), view=sorted(view))
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

    def on_depart(self, *, time: float, pid: int, vpid: Any) -> None:
        self._note("depart", time, pid, vpid=str(vpid))
        self._first_depart.setdefault((pid, vpid), time)
        still_pending = []
        for pending in self._pending_s3:
            new_vpid, join_time, p, old_vpid = pending
            if (p, old_vpid) != (pid, vpid):
                still_pending.append(pending)
                continue
            depart = self._first_depart[(pid, vpid)]
            if depart > join_time:
                self._violate(
                    time, "S3", pid,
                    f"departed {old_vpid} at {depart} after the first join "
                    f"of {new_vpid} at {join_time}",
                )
        self._pending_s3 = still_pending

    def _require_depart(self, new_vpid: Any, join_time: float, pid: int,
                        old_vpid: Any) -> None:
        depart = self._first_depart.get((pid, old_vpid))
        if depart is not None and depart <= join_time:
            return
        # the matching depart may still land at this same instant —
        # hold the obligation and let on_depart/finalize() resolve it
        self._pending_s3.append((new_vpid, join_time, pid, old_vpid))

    # -- access hooks (logical: AccessMixin; physical: History) ---------------

    def on_logical_access(self, *, time: float, pid: int, txn: Any, kind: str,
                          obj: str, vpid: Any, targets: Tuple[int, ...],
                          epoch: int = 0) -> None:
        self._note("logical", time, pid, txn=str(txn), kind=kind, obj=obj,
                   vpid=str(vpid))
        if self.placement is None:
            return
        view = self._views.get(vpid)
        if view is None:
            return  # a partition the auditor never saw committed; S-checks
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

    def on_physical_access(self, op) -> None:
        """A served ``PhysicalOp``, judged against its server's live
        state; a pid absent from ``states`` (a baseline) is not audited."""
        state = self.states.get(op.copy_pid)
        if state is None:
            return
        time, pid, txn, kind, obj, vpid = (op.time, op.copy_pid, op.txn,
                                           op.kind, op.obj, op.vpid)
        self._note("physical", time, pid, txn=str(txn), kind=kind, obj=obj,
                   vpid=str(vpid))
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

    # -- reshard hooks (wired through the migration engine) --------------------

    def on_reshard_flip(self, *, time: float, pid: int, obj: str,
                        old_weights, new_weights, old_epoch: int,
                        new_epoch: int, installed) -> None:
        """A migration flipped ``obj``'s directory entry.

        Records the retiring epoch's weights so in-flight accesses
        stamped with it are judged against the placement they actually
        routed on, and convicts flips that skip the epoch bump or route
        to holders that never installed a copy.
        """
        self._note("reshard-flip", time, pid, obj=obj, old_epoch=old_epoch,
                   new_epoch=new_epoch)
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

    def on_copy_installed(self, *, time: float, pid: int, obj: str) -> None:
        """A reshard materialized a copy of ``obj`` on ``pid``.

        The no-orphan-copy invariant: a copy may only appear on a
        processor the live placement routes to or a staged migration is
        about to — anything else is unreachable storage that R3 will
        never write and R5 will never refresh.
        """
        self._note("reshard-install", time, pid, obj=obj)
        if self.placement is None:
            return
        allowed = self.placement.copies(obj) | \
            self.placement.pending_copies(obj)
        if pid not in allowed:
            self._violate(
                time, "orphan-copy", pid,
                f"installed a copy of {obj} on a processor outside both "
                f"the live placement {sorted(self.placement.copies(obj))} "
                "and any staged migration",
            )

    def on_copy_retired(self, *, time: float, pid: int, obj: str) -> None:
        """A reshard released ``pid``'s copy of ``obj``."""
        self._note("reshard-retire", time, pid, obj=obj)
        if self.placement is None:
            return
        if pid in self.placement.copies(obj):
            self._violate(
                time, "orphan-copy", pid,
                f"retired the copy of {obj} while the live placement "
                "still routes to it",
            )

    # -- atomic-commit hooks -------------------------------------------------------------

    def on_decision(self, time: float, pid: int, txn: Any,
                    outcome: str) -> None:
        self._note("decision", time, pid, txn=str(txn), outcome=outcome)
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

    def on_decision_applied(self, time: float, pid: int, txn: Any,
                            outcome: str) -> None:
        self._note("apply", time, pid, txn=str(txn), outcome=outcome)
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

    # -- client-tier lease hooks -----------------------------------------------

    def on_committed_write(self, *, time: float, pid: int, obj: str,
                           version: Any) -> None:
        """A processor applied a commit that wrote ``obj``.

        First apply wins: the same (obj, version) lands at every copy
        holder, and the *earliest* apply is the moment the write could
        first be observed — the conservative anchor for the staleness
        check.  Strict 2PL orders writes of one object identically at
        every copy, so first-apply order is the version order.
        """
        self._note("commit-write", time, pid, obj=obj, version=str(version))
        key = (obj, version)
        if key in self._commit_index:
            return
        timeline = self._commit_times.setdefault(obj, [])
        self._commit_index[key] = len(timeline)
        timeline.append(time)

    def on_lease_grant(self, *, time: float, pid: int, obj: str,
                       version: Any, duration: float, pi: float) -> None:
        """A processor granted a lease; enforce the L <= pi rule."""
        self._note("lease-grant", time, pid, obj=obj, version=str(version),
                   duration=duration)
        if duration > pi + 1e-9:
            self._violate(
                time, "lease-rule", pid,
                f"granted a {duration}-lease on {obj} with pi={pi}: the "
                "staleness derivation requires L <= pi",
            )

    def on_lease_read(self, *, time: float, pid: int, obj: str,
                      version: Any, expires_at: float,
                      bound: float) -> None:
        """A read was served from a lease; check expiry and staleness.

        The served version must be at least as new as the newest
        version committed (first applied anywhere) by ``time - bound``.
        A version absent from the timeline is the initial value, older
        than every committed write.
        """
        self._note("lease-read", time, pid, obj=obj, version=str(version),
                   bound=bound)
        if time > expires_at + 1e-9:
            self._violate(
                time, "lease-expired", pid,
                f"served {obj} from a lease that expired at {expires_at}",
            )
        timeline = self._commit_times.get(obj, [])
        horizon = time - bound
        # newest timeline index whose first-apply time is <= horizon
        newest_due = -1
        for index, applied_at in enumerate(timeline):
            if applied_at <= horizon:
                newest_due = index
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

    def _note(self, event: str, time: float, pid: int, **info) -> None:
        entry = {"event": event, "time": time, "pid": pid}
        entry.update(info)
        self._context.append(entry)

    def _violate(self, time: float, invariant: str, pid: Optional[int],
                 detail: str) -> None:
        violation = AuditViolation(
            time=time, invariant=invariant, pid=pid, detail=detail,
            context=tuple(dict(c) for c in self._context),
        )
        self.violations.append(violation)
        if self.tracer is not None:
            self.tracer.emit("audit.violation", pid=pid or 0,
                             invariant=invariant, detail=detail)

    def __repr__(self) -> str:
        return (f"InvariantAuditor(violations={len(self.violations)}, "
                f"views={len(self._views)})")
