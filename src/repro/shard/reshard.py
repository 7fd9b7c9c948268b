"""Online resharding: placement changes as first-class fault-tolerant ops.

A reshard moves copies between processors *while the cluster serves
transactions* — the elasticity story the placement policies promise
(§"bounded movement" of the hash ring) made operational.  The engine
executes one :class:`ReshardAction` (e.g. "expand the ring onto five
new processors at t=40") as a sequence of per-object migrations, each
a small fault-tolerant protocol of its own:

1. **Stage** — ``CopyPlacement.begin_migration`` records the target
   holders without routing on them.  From this instant a crash-proof
   fence holds: every copy server rejects transactional writes of the
   object (``stale-placement``), so the old copies quiesce even if a
   holder crashes and forgets its volatile write gate.  Reads keep
   flowing — the old placement stays authoritative until the flip.
2. **Gate + install** — the old holders are write-gated by RPC (each
   reply snapshots the copy's date and in-doubt status, atomically
   with the gate), then the joining holders install the object through
   the same ``vpread`` path partition initialization uses (§6): the
   stable-read gate and in-doubt refusals guarantee no uncommitted or
   unresolved value is ever copied.
3. **Verify + flip** — the coordinator re-gates and compares dates: if
   any old copy is newer than the installed floor, or any in-doubt
   write is still unresolved, it loops.  When the round is clean the
   directory entry flips (``commit_migration``) with no intervening
   yield — the flip bumps the object's **placement epoch**, which
   invalidates cached directory routes and fails the R4 stamp check of
   every transaction that accessed the old placement.
4. **Release + retire** — the old holders drop their gates; holders no
   longer in the placement retire their copy, releasing its storage.
   Retiring is refused while the copy still carries unresolved
   transaction state (in-doubt writes, unapplied before-images); the
   coordinator retries until the late decides land.

The coordinator survives its own crash the way the in-doubt resolver
does: every step is journalled into a durable cell through the storage
engine's WAL *before* it takes effect, and a recovery hook resumes the
campaign from the journal — already-flipped objects skip straight to
release, unflipped ones re-run their (idempotent) gate/install/verify
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.history import ReshardFlip
from ..core.copy_update import _date_newer

#: name of the coordinator's durable journal cell
JOURNAL_CELL = "reshard-journal"


@dataclass(frozen=True)
class ReshardAction:
    """One planned placement change: expand the ring onto ``add``.

    A plain picklable record (the :class:`~repro.net.nemesis.
    FaultAction` idiom) so hunter artifacts can carry reshard schedules
    and replay them bit-for-bit.

    ``add`` are the processors joining the assignment ring at ``time``
    (they must already be cluster members — spare capacity held out of
    the initial placement).  ``coordinator`` is the pid driving the
    migration (None = the lowest base pid).
    """

    time: float
    add: Tuple[int, ...]
    coordinator: Optional[int] = None

    @classmethod
    def onto_spares(cls, processors: int, spares: int, time: float,
                    coordinator: Optional[int] = None) -> "ReshardAction":
        """Expand at ``time`` onto the ``spares`` highest pids of a
        ``processors``-node cluster (held out of the initial ring)."""
        if not 0 < spares < processors:
            raise ValueError(f"spares must add pids and leave a base ring: "
                             f"need 0 < {spares} < {processors}")
        return cls(time=time, coordinator=coordinator,
                   add=tuple(range(processors - spares + 1, processors + 1)))


@dataclass
class ReshardStats:
    """Coordinator-side counters (per-processor install/retire counts
    live in :class:`~repro.protocols.base.ProtocolMetrics`)."""

    #: objects whose placement changed and were migrated to completion
    objects_moved: int = 0
    #: objects the target assignment left untouched (bounded movement)
    objects_unchanged: int = 0
    #: committed directory flips
    flips: int = 0
    #: gate/install/verify rounds that had to loop (in-doubt writes,
    #: unreachable holders, stale installs)
    verify_retries: int = 0
    #: campaigns resumed from the journal after a coordinator crash
    resumes: int = 0
    #: actions driven to completion
    campaigns_completed: int = 0


class ReshardEngine:
    """Drives :class:`ReshardAction` s against a live cluster.

    Built by the experiment runner when a spec carries reshard actions;
    a cluster that never reshards never constructs one, so default
    runs carry no reshard timer, hook or message.
    """

    def __init__(self, cluster, policy, objects: Sequence[str],
                 actions: Sequence[ReshardAction]):
        from .policy import PlacementPolicy
        if not isinstance(policy, PlacementPolicy):
            raise TypeError(f"need a PlacementPolicy, got {policy!r}")
        self.cluster = cluster
        self.policy = policy
        self.objects = sorted(objects)
        self.actions: Tuple[ReshardAction, ...] = tuple(
            sorted(actions, key=lambda a: a.time))
        joining = set()
        for action in self.actions:
            joining.update(action.add)
        strangers = sorted(joining - set(cluster.pids))
        if strangers:
            raise ValueError(
                f"reshard adds {strangers} which are not cluster members")
        #: the pids the initial placement should be computed over —
        #: cluster members minus every processor a reshard later adds
        self.base_pids: List[int] = [p for p in cluster.pids
                                     if p not in joining]
        if not self.base_pids:
            raise ValueError("every processor is reshard spare capacity; "
                             "nothing can hold the initial placement")
        self.stats = ReshardStats()
        self._completed: set = set()
        self._campaigns: Dict[int, Any] = {}
        self._enabled = False

    # -- wiring ---------------------------------------------------------------

    def enable(self) -> None:
        """Schedule every action.

        Idempotent wiring: each action gets an injector timer and each
        coordinator a recovery hook that resumes an interrupted
        campaign from its journal.  The server side needs none — every
        protocol instance already serves the ``reshard-*`` kinds.
        """
        if self._enabled:
            return
        self._enabled = True
        hooked = set()
        for index, action in enumerate(self.actions):
            pid = self._coordinator_of(action)
            if pid not in hooked:
                hooked.add(pid)
                processor = self.cluster.processors[pid]
                processor.on_recover(
                    lambda p=pid: self._resume_coordinator(p))
            self.cluster.injector.at(
                action.time, lambda i=index: self._launch(i),
                f"reshard({index})")

    def _coordinator_of(self, action: ReshardAction) -> int:
        return (action.coordinator if action.coordinator is not None
                else min(self.base_pids))

    def _launch(self, index: int, resumed: bool = False) -> None:
        if index in self._completed:
            return
        action = self.actions[index]
        processor = self.cluster.processors[self._coordinator_of(action)]
        if not processor.alive:
            # The coordinator is down at its scheduled instant; its
            # recovery hook re-launches (the action is not lost).
            return
        running = self._campaigns.get(index)
        if running is not None and running.is_alive:
            return
        self._campaigns[index] = processor.spawn(
            f"reshard-{index}", self._campaign(index, resumed=resumed))

    def _resume_coordinator(self, pid: int) -> None:
        """Recovery hook: relaunch this coordinator's due campaigns."""
        now = self.cluster.sim.now
        for index, action in enumerate(self.actions):
            if (self._coordinator_of(action) == pid
                    and action.time <= now
                    and index not in self._completed):
                self._launch(index, resumed=True)

    # -- the coordinator campaign ---------------------------------------------

    def _campaign(self, index: int, resumed: bool = False):
        action = self.actions[index]
        cluster = self.cluster
        config = cluster.config
        sim = cluster.sim
        processor = cluster.processors[self._coordinator_of(action)]
        # Stacked expansions flip in order: a later action's target
        # assignment presumes the earlier one's placement.
        while any(j not in self._completed for j in range(index)):
            yield sim.timeout(config.delta)
        store = processor.store
        journal = store.cell(JOURNAL_CELL)
        if (journal is not None and journal.get("action") == index
                and journal.get("complete")):
            self._completed.add(index)
            return
        if resumed:
            self.stats.resumes += 1
            if self.cluster.tracer is not None:
                self.cluster.tracer.emit("reshard.resume", pid=processor.pid,
                                         action=index)
        if journal is None or journal.get("action") != index:
            journal = {"action": index, "done": [], "current": None,
                       "complete": False}
            store.write_cell(JOURNAL_CELL, journal)
        plan = self._plan(index)
        if self.cluster.tracer is not None:
            self.cluster.tracer.emit(
                "reshard.start", pid=processor.pid, action=index,
                moving=len(plan), resumed=resumed)
        pending_obj = (journal["current"] or {}).get("obj")
        work = sorted(set(plan) | ({pending_obj} if pending_obj else set()))
        for obj in work:
            if obj in store.cell(JOURNAL_CELL)["done"]:
                continue
            target = plan.get(obj)
            if target is None:
                # Resumed after the flip of an object the recomputed
                # plan now considers settled; only release remains.
                target = dict(cluster.placement.weights(obj))
            yield from self._migrate(processor, store, obj, target)
        done = list(store.cell(JOURNAL_CELL)["done"])
        self.stats.objects_unchanged += len(self.objects) - len(done)
        store.write_cell(JOURNAL_CELL, {"action": index, "done": done,
                                        "current": None, "complete": True})
        self.stats.campaigns_completed += 1
        self._completed.add(index)
        if self.cluster.tracer is not None:
            self.cluster.tracer.emit("reshard.done", pid=processor.pid,
                                     action=index)

    def _plan(self, index: int) -> Dict[str, Dict[int, int]]:
        """Objects whose placement the action changes, with targets.

        The target assignment is the policy recomputed over the grown
        membership; unchanged objects are skipped entirely — this is
        what makes the moved-object count equal the policy's bounded-
        movement prediction.
        """
        members = sorted(set(self.base_pids).union(
            *(a.add for a in self.actions[:index + 1])))
        assignment = self.policy.assign(self.objects, members)
        placement = self.cluster.placement
        plan = {}
        for obj in self.objects:
            new = {int(p): int(w) for p, w in assignment[obj].items()}
            if new != dict(placement.weights(obj)):
                plan[obj] = new
        return plan

    def _migrate(self, processor, store, obj: str,
                 target: Dict[int, int]):
        """Move one object to ``target``; idempotent under resume."""
        cluster = self.cluster
        placement = cluster.placement
        config = cluster.config
        sim = cluster.sim
        current = store.cell(JOURNAL_CELL).get("current")
        if current and current.get("obj") == obj:
            old = {int(p): int(w) for p, w in current["old"].items()}
            flipped = bool(current.get("flipped"))
        else:
            old = dict(placement.weights(obj))
            flipped = False
            self._journal_current(store, obj, old, flipped=False)
        adds = sorted(set(target) - set(old))
        drops = sorted(set(old) - set(target))
        size = placement.size(obj)
        if not flipped:
            yield from self._cutover(processor, store, obj, old, target,
                                     adds, size)
        # Release: every old holder drops its write gate; dropped
        # holders retire the copy.  "busy" (an in-flight decide still
        # needs the copy) and silence retry until they drain.
        waiting = sorted(old)
        while waiting:
            results = yield from processor.scatter(
                waiting, "reshard-release",
                lambda p: {"obj": obj, "retire": p in drops},
                timeout=config.access_timeout,
            ).gather()
            waiting = [p for p in waiting
                       if results[p] is None or not results[p]["ok"]]
            if waiting:
                yield sim.timeout(config.commit_wait)
        journal = store.cell(JOURNAL_CELL)
        store.write_cell(JOURNAL_CELL, {"action": journal["action"],
                                        "done": list(journal["done"]) + [obj],
                                        "current": None, "complete": False})
        self.stats.objects_moved += 1

    def _cutover(self, processor, store, obj: str, old: Dict[int, int],
                 target: Dict[int, int], adds: List[int], size: int):
        """Stage, gate, install, verify, then flip."""
        cluster = self.cluster
        placement = cluster.placement
        config = cluster.config
        sim = cluster.sim
        if not placement.pending_copies(obj):
            placement.begin_migration(obj, target, members=cluster.pids)
        while True:
            gates = yield from self._gate_all(processor, obj, sorted(old))
            if any(reply["in_doubt"] for reply in gates.values()):
                self.stats.verify_retries += 1
                yield sim.timeout(config.commit_wait)
                continue
            freshest = None
            for reply in gates.values():
                if _date_newer(reply["date"], freshest):
                    freshest = reply["date"]
            sources = sorted(p for p in old if gates[p]["date"] == freshest)
            if adds:
                floor = yield from self._install_all(
                    processor, obj, adds, sources, size)
                if floor is _FAILED:
                    self.stats.verify_retries += 1
                    yield sim.timeout(config.delta)
                    continue
                # Verify round: re-gate and compare.  If any old copy
                # carries a date newer than the installed floor (or an
                # in-doubt write appeared), the install is stale — loop.
                gates = yield from self._gate_all(processor, obj,
                                                 sorted(old))
                if any(reply["in_doubt"] for reply in gates.values()):
                    self.stats.verify_retries += 1
                    yield sim.timeout(config.commit_wait)
                    continue
                newest = None
                for reply in gates.values():
                    if _date_newer(reply["date"], newest):
                        newest = reply["date"]
                if _date_newer(newest, floor):
                    self.stats.verify_retries += 1
                    continue
            break
        # Flip.  No yield since the last gather returned: the gate
        # snapshot, the epoch bump, and the journal entry are one
        # atomic step of the simulation.
        epoch_before = placement.epoch_of(obj)
        placement.commit_migration(obj)
        self.stats.flips += 1
        self._journal_current(store, obj, old, flipped=True)
        cluster.history.record(ReshardFlip(
            sim.now, processor.pid, obj, old, target, epoch_before,
            placement.epoch_of(obj), adds))

    # -- RPC helpers ----------------------------------------------------------

    def _gate_all(self, processor, obj: str, holders: List[int]):
        """Gate every holder; retries silence until all have answered.

        Replies may be assembled across retry rounds — safe because the
        pending-migration fence, not the volatile gate, is what keeps
        writes out (see ``AccessMixin._refusal``); the gates exist to snapshot
        dates and park well-behaved writers.
        """
        config = self.cluster.config
        replies: Dict[int, Any] = {}
        waiting = list(holders)
        while waiting:
            results = yield from processor.scatter(
                waiting, "reshard-gate", lambda _p: {"obj": obj},
                timeout=config.access_timeout,
            ).gather()
            for pid in list(waiting):
                if results[pid] is not None:
                    replies[pid] = results[pid]
                    waiting.remove(pid)
            if waiting:
                yield self.cluster.sim.timeout(config.delta)
        return replies

    def _install_all(self, processor, obj: str, adds: List[int],
                     sources: List[int], size: int):
        """Install the copy on every joining holder from ``sources``.

        Returns the oldest installed date (the verification floor), or
        ``_FAILED`` if any holder refused or stayed silent — the caller
        waits and retries the whole round.
        """
        config = self.cluster.config
        results = yield from processor.scatter(
            adds, "reshard-install",
            lambda _p: {"obj": obj, "sources": sources, "size": size},
            # the handler runs a nested vpread under access_timeout;
            # give the outer call room for both legs
            timeout=2 * config.access_timeout + config.delta,
        ).gather()
        floor = _UNSET
        for pid in adds:
            reply = results[pid]
            if reply is None or not reply["ok"]:
                return _FAILED
            if floor is _UNSET or _date_newer(floor, reply["date"]):
                floor = reply["date"]
        return floor

    # -- misc -----------------------------------------------------------------

    @staticmethod
    def _journal_current(store, obj: str, old: Dict[int, int],
                         flipped: bool) -> None:
        """Force-write the per-object migration record.

        Fresh dicts every time: the WAL record and any checkpoint hold
        references to the journalled value, so mutating a shared dict
        would silently rewrite history.
        """
        journal = store.cell(JOURNAL_CELL)
        store.write_cell(JOURNAL_CELL, {
            "action": journal["action"],
            "done": list(journal["done"]),
            "current": {"obj": obj,
                        "old": {int(p): int(w) for p, w in old.items()},
                        "flipped": flipped},
            "complete": False,
        })

    def __repr__(self) -> str:
        return (f"ReshardEngine({len(self.actions)} actions, "
                f"{len(self.objects)} objects, base={self.base_pids})")


#: sentinels for :meth:`ReshardEngine._install_all`
_FAILED = object()
_UNSET = object()
