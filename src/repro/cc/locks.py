"""A per-processor lock manager for physical copies.

Strict two-phase locking is the concurrency control protocol the paper
names first among the CP-serializable class (assumption A1, §4).  Locks
are taken on *copies* — each processor locks only its local physical
objects — exactly the configuration §6 assumes when deriving the
weakened rule R4.

Grant policy: shared (S) locks are compatible with each other; exclusive
(X) with nothing.  Requests queue FIFO without barging; an S→X upgrade
is granted immediately when the requester is the sole holder, otherwise
it waits at the front of the queue.  A lock granted on the spot costs
no event: :meth:`LockManager.acquire` returns ``None``; only a request
that must queue is a :class:`LockRequest`.  Deadlock handling is by
timeout at the caller (``sim.wait(request, timeout, False)``: at expiry
the request is cancelled — it leaves the queue and the next waiter is
promoted — and fires ``False``; a grant already made when the deadline
is dispatched wins).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim import Event, Simulator

SHARED = "S"
EXCLUSIVE = "X"


class LockRequest(Event):
    """A queued lock acquisition, fired with ``True`` when granted;
    cancelling it leaves the queue."""

    __slots__ = ("obj", "txn", "mode", "_manager")

    def __init__(self, manager: "LockManager", obj: str, txn: Any, mode: str):
        super().__init__(manager.sim)
        self.obj = obj
        self.txn = txn
        self.mode = mode
        self._manager = manager

    def cancel(self) -> None:
        if not self.triggered:
            self._manager._drop_request(self)

    def __repr__(self) -> str:
        state = ("queued" if not self.triggered
                 else "granted" if self._value else "expired")
        return f"<lock({self.obj},{self.txn},{self.mode}) {state}>"


@dataclass
class _LockState:
    seq: int  #: creation number: the table's insertion order
    holders: Dict[Any, str] = field(default_factory=dict)
    queue: List[LockRequest] = field(default_factory=list)


class LockManager:
    """Lock table over the local copies of one processor."""

    def __init__(self, sim: Simulator, name: str = "locks"):
        self.sim = sim
        self.name = name
        self._table: Dict[str, _LockState] = {}
        self._created = 0
        #: txn -> objects it holds or queues on (a drop prunes it)
        self._touched: Dict[Any, set] = {}
        #: grants ever made, for metrics
        self.grants = 0
        self.waits = 0
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: pid stamped on trace events (set by the owning protocol)
        self.trace_pid: Optional[int] = None

    def _emit(self, etype: str, obj: str, txn: Any, mode: str) -> None:
        # Call sites guard on ``self.tracer is not None`` themselves so the
        # disabled path costs one attribute test, not a method call.
        self.tracer.emit(etype, pid=self.trace_pid, obj=obj,
                         txn=str(txn), mode=mode)

    # -- acquisition ------------------------------------------------------------

    def acquire(self, txn: Any, obj: str, mode: str) -> Optional[LockRequest]:
        """Request a lock: ``None`` if it is held on return, else the
        queued :class:`LockRequest`, which fires when granted.

        Granted on the spot: re-entrant holds, S under an existing X by
        the same transaction, a sole holder's upgrade, and a compatible
        request with nobody queued.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        state = self._table.get(obj)
        if state is None:
            self._created += 1
            state = self._table[obj] = _LockState(self._created)

        held = state.holders.get(txn)
        if held == EXCLUSIVE or held == mode:
            # Re-entrant: X covers S; same mode is a no-op.
            return None
        upgrade = held == SHARED  # and mode == EXCLUSIVE
        self._touched.setdefault(txn, set()).add(obj)
        # A sole holder's upgrade passes the queue (nobody there can run
        # before it ends): no head is ever left grantable for a release
        # elsewhere to find — release_all visits only what its txn touched.
        if (len(state.holders) == 1 if upgrade
                else not state.queue and self._compatible(state, mode)):
            state.holders[txn] = mode
            self.grants += 1
            if self.tracer is not None:
                self._emit("lock.grant", obj, txn, mode)
            return None
        request = LockRequest(self, obj, txn, mode)
        if upgrade:
            # behind the other readers only: it beats every queued request
            state.queue.insert(0, request)
        else:
            state.queue.append(request)
        self.waits += 1
        if self.tracer is not None:
            self._emit("lock.wait", obj, txn, mode)
        return request

    def flash_shared(self, txn: Any, obj: str) -> bool:
        """Grant and release at once a shared lock :meth:`acquire` would
        grant on the spot, counted and traced as such but leaving no
        table entry; False, doing nothing, where it would queue."""
        state = self._table.get(obj)
        if state and (state.queue or EXCLUSIVE in state.holders.values()):
            return False
        self.grants += 1
        if self.tracer is not None:
            self._emit("lock.grant", obj, txn, SHARED)
            self._emit("lock.release", obj, txn, SHARED)
        return True

    # -- release ------------------------------------------------------------

    def release_all(self, txn: Any) -> List[str]:
        """Strict 2PL release at end of transaction; returns freed
        objects.  Visits only what the transaction touched, in table
        insertion order (it fixes the same-instant grant order)."""
        freed = []
        table = self._table
        objects = self._touched.pop(txn, ())
        if len(objects) > 1:
            objects = sorted(objects, key=lambda obj: table[obj].seq)
        for obj in objects:
            state = table[obj]
            mode = state.holders.pop(txn, None)
            if mode is not None:
                freed.append(obj)
                if self.tracer is not None:
                    self._emit("lock.release", obj, txn, mode)
            if state.queue:
                state.queue = [r for r in state.queue if r.txn != txn]
                self._promote(obj, state)
            if not state.holders and not state.queue:
                del table[obj]
        return freed

    # -- inspection ------------------------------------------------------------

    def holders(self, obj: str) -> Dict[Any, str]:
        """Current holders of ``obj``'s lock: ``{txn: mode}``."""
        state = self._table.get(obj)
        return dict(state.holders) if state else {}

    def holding_txns(self) -> set:
        """All transactions currently holding any lock here."""
        txns = set()
        for state in self._table.values():
            txns |= set(state.holders)
        return txns

    def queue_length(self, obj: str) -> int:
        """Requests waiting on ``obj`` (for tests: no other reader)."""
        state = self._table.get(obj)
        return len(state.queue) if state else 0

    # -- internals -----------------------------------------------------------

    def _compatible(self, state: _LockState, mode: str) -> bool:
        """S joins other S holders; X joins nobody."""
        held = state.holders.values()
        return not held or (mode == SHARED and EXCLUSIVE not in held)

    def _promote(self, obj: str, state: _LockState) -> None:
        """Grant queued requests from the head while compatible."""
        queue, holders = state.queue, state.holders
        while queue:
            request = queue[0]
            txn, mode = request.txn, request.mode
            held = holders.get(txn)
            if held != EXCLUSIVE and held != mode:  # else: already covered
                # (an upgrade needs its requester to be the sole holder)
                if not (len(holders) == 1 if held == SHARED
                        else self._compatible(state, mode)):
                    break
                holders[txn] = mode
                self.grants += 1
                if self.tracer is not None:
                    self._emit("lock.grant", obj, txn, mode)
            queue.pop(0)
            request.succeed(True)

    def _drop_request(self, request: LockRequest) -> None:
        state = self._table.get(request.obj)
        if state is None:
            return
        try:
            state.queue.remove(request)
        except ValueError:
            return
        if self.tracer is not None:
            self._emit("lock.drop", request.obj, request.txn, request.mode)
        txn = request.txn
        if txn not in state.holders and \
                not any(r.txn == txn for r in state.queue):
            touched = self._touched[txn]
            touched.discard(request.obj)
            if not touched:
                del self._touched[txn]
        self._promote(request.obj, state)
        if not state.holders and not state.queue:
            del self._table[request.obj]
