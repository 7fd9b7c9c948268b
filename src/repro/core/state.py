"""The per-processor shared protocol state (Fig. 3).

Concrete variables and their relation to the paper's abstract
functions::

    defview(p)  =  assigned
    assigned    ⇒  vp(p) = cur_id  ∧  view(p) = lview

``max_id`` is kept durable (a crash-surviving cell): identifiers must
keep growing across crashes or a recovering processor could mint an
id it already used, breaking the total order's role as a creation
order.  The cell is allocated from the processor's storage engine —
every bump is a journalled, *forced* WAL write (the paper's durable
``max-id`` made explicit, and one of the protocol's forced-write cost
points).  Everything else is volatile and reset by a crash.

Critical sections (the ``< ... >`` brackets of the pseudocode) need no
explicit locks here: protocol tasks only interleave at ``yield`` points,
so any yield-free block is atomic — the implementation keeps every
bracketed region yield-free.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..analysis.history import CrashDepart, Depart, History, Join
from ..node.storage import StorageEngine
from ..sim import Notifier, Simulator
from .ids import VpId, initial_vp_id


class ReplicaState:
    """Fig. 3's shared variables, plus bookkeeping for §6 optimizations."""

    def __init__(self, pid: int, sim: Simulator, history=None, store=None):
        self.pid = pid
        self.sim = sim
        #: where joins and departs are reported (a private one if none)
        self.history = History() if history is None else history
        boot_id = initial_vp_id(pid)
        self.cur_id: VpId = boot_id
        # durable across crashes: a journalled cell of the processor's
        # storage engine (a private engine when none is supplied); a
        # cell that already holds a value keeps it
        self._store = StorageEngine(pid) if store is None else store
        if self._store.cell("max-id") is None:
            self._store.write_cell("max-id", boot_id, forced=False)
        self.assigned: bool = True
        self.lview: Set[int] = {pid}
        self.locked: Set[str] = set()
        #: objects whose local copy is write-gated by an in-progress
        #: placement migration (reshard engine); reads stay allowed —
        #: the old copy is fresh until the flip — but writes must drain
        #: or abort so the installed copy cannot go stale unnoticed
        self.migrating: Set[str] = set()
        self.locked_changed = Notifier(sim, name=f"p{pid}.locked")
        self.partition_changed = Notifier(sim, name=f"p{pid}.partition")
        #: info distributed with the commit of the current partition:
        #: member pid -> (previous vp-id, objects accessible there)
        self.previous_map: Dict[int, tuple] = {}
        #: bumped on every join/depart so in-flight operations can detect
        #: that the partition changed under them
        self.epoch: int = 0
        self.history.record(Join(sim.now, pid, boot_id, frozenset({pid})))

    # -- max-id (durable) ------------------------------------------------------

    @property
    def max_id(self) -> VpId:
        return self._store.cell("max-id")

    @max_id.setter
    def max_id(self, value: VpId) -> None:
        if value < self.max_id:
            raise ValueError(f"max_id must not decrease: {self.max_id} -> {value}")
        self._store.write_cell("max-id", value)

    # -- partition membership ----------------------------------------------------

    def depart(self) -> None:
        """Leave the current partition (sets ``defview`` false).

        Departing is unilateral and requires no communication — the
        paper stresses a processor must be able to depart autonomously
        since it may no longer reach anyone.
        """
        if not self.assigned:
            return
        self.assigned = False
        self.epoch += 1
        self.partition_changed.notify_all()
        self.history.record(Depart(self.sim.now, self.pid, self.cur_id))

    def join(self, vpid: VpId, view: Set[int],
             previous_map: Optional[Dict[int, tuple]] = None) -> None:
        """Commit to partition ``vpid`` with the agreed ``view``."""
        if self.assigned:
            # S3: a processor departs before joining a new partition.
            self.depart()
        self.cur_id = vpid
        self.lview = set(view)
        self.assigned = True
        self.epoch += 1
        self.previous_map = dict(previous_map or {})
        self.partition_changed.notify_all()
        self.history.record(Join(self.sim.now, self.pid, vpid, frozenset(view)))

    # -- the locked set (R5 gating) ---------------------------------------------

    def lock_objects(self, objects: Set[str]) -> None:
        """Mark objects awaiting Update-Copies; transactions must wait."""
        self.locked |= objects
        # waiters re-check their predicate; no spurious progress
        self.locked_changed.notify_all()

    def unlock_object(self, obj: str) -> None:
        """Release one object after its copy is up to date."""
        self.locked.discard(obj)
        self.locked_changed.notify_all()

    def clear_locked(self) -> None:
        self.locked.clear()
        self.locked_changed.notify_all()

    # -- the migrating set (reshard write gate) ---------------------------------

    def gate_migration(self, obj: str) -> None:
        """Write-gate ``obj`` while the reshard engine copies it."""
        self.migrating.add(obj)
        self.locked_changed.notify_all()

    def ungate_migration(self, obj: str) -> None:
        """Release the write gate after the flip (or an aborted move)."""
        self.migrating.discard(obj)
        self.locked_changed.notify_all()

    # -- crash/recover hooks ---------------------------------------------------

    def reset_volatile(self) -> None:
        """Crash: views and assignment are volatile and vanish."""
        if self.assigned:
            self.history.record(CrashDepart(self.sim.now, self.pid,
                                            self.cur_id))
        self.assigned = False
        self.lview = {self.pid}
        self.previous_map = {}
        self.epoch += 1
        self.migrating.clear()
        self.clear_locked()

    def reboot(self) -> None:
        """Recover: come up alone in a fresh trivial partition.

        The durable ``max_id`` guarantees the new identifier exceeds
        anything this processor used before the crash; probing then
        merges it with whoever is reachable.
        """
        fresh = self.max_id.successor(self.pid)
        self.max_id = fresh
        self.join(fresh, {self.pid})

    def __repr__(self) -> str:
        flag = "assigned" if self.assigned else "unassigned"
        return (f"ReplicaState(p{self.pid} {flag} cur={self.cur_id} "
                f"max={self.max_id} view={sorted(self.lview)})")
