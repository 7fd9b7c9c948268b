"""Strict two-phase locking as a concurrency control strategy [EGLT].

Wraps the :class:`~repro.cc.locks.LockManager` with the deadlock-
breaking timeout: admission = lock grant; ``finish`` is the strict
release at end of transaction.
"""

from __future__ import annotations

from typing import Any, Set

from ..sim import Simulator
from .locks import EXCLUSIVE, SHARED, LockManager
from .strategy import ConcurrencyControl, REJECTED_TIMEOUT


class TwoPhaseLocking(ConcurrencyControl):
    """Strict 2PL on copies with timeout-based deadlock breaking."""

    name = "2pl"

    def __init__(self, sim: Simulator, lock_timeout: float,
                 label: str = "2pl"):
        self.sim = sim
        self.lock_timeout = lock_timeout
        self.locks = LockManager(sim, name=label)
        self._gates = 0  # gate transactions named so far

    def begin_read(self, txn: Any, ts: Any, obj: str):
        granted = yield from self._acquire(txn, obj, SHARED)
        return (granted, None if granted else REJECTED_TIMEOUT)

    def begin_write(self, txn: Any, ts: Any, obj: str):
        granted = yield from self._acquire(txn, obj, EXCLUSIVE)
        return (granted, None if granted else REJECTED_TIMEOUT)

    def finish(self, txn: Any, outcome: str) -> None:
        self.locks.release_all(txn)

    def active_txns(self) -> Set[Any]:
        return self.locks.holding_txns()

    def stable_read_gate(self, obj: str):
        """A short shared lock: granted means no writer holds the copy."""
        self._gates += 1
        gate_txn = ("cc-gate", self._gates)
        granted = yield from self._acquire(gate_txn, obj, SHARED)
        if granted:
            self.locks.release_all(gate_txn)
        return granted

    def stable_read_now(self, obj: str) -> bool:
        """The gate's shared lock, granted and released on the spot."""
        granted = self.locks.flash_shared(("cc-gate", self._gates + 1), obj)
        self._gates += granted
        return granted

    def _acquire(self, txn: Any, obj: str, mode: str):
        request = self.locks.acquire(txn, obj, mode)
        if request is None:
            return True
        return (yield from self.sim.wait(request, self.lock_timeout, False))
