"""The concurrency control strategy interface (assumption A1).

The paper requires only that the concurrency control protocol be
CP-serializable and lists two-phase locking [EGLT] and timestamp
ordering [BSR] as members of that class.  Both are implemented behind
this interface so the replica control layer — the paper's contribution
— is strictly independent of the CC choice, and the ablation bench can
swap them under identical workloads.

A strategy answers, per physical access at one copy server: *may this
transaction read/write this copy now?* — possibly after waiting — and
is told the transaction's fate so it can release its admission state.
Recovery reads ask if a copy is stable now, and wait only if it is not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Set

#: admission results
GRANTED = "granted"
REJECTED_TIMEOUT = "cc-timeout"
REJECTED_TOO_LATE = "cc-too-late"


class ConcurrencyControl(ABC):
    """Per-processor admission control over local physical copies."""

    name: str = "abstract"

    @abstractmethod
    def begin_read(self, txn: Any, ts: Any, obj: str):
        """Generator → (granted: bool, reason).  May wait."""

    @abstractmethod
    def begin_write(self, txn: Any, ts: Any, obj: str):
        """Generator → (granted: bool, reason).  May wait."""

    @abstractmethod
    def finish(self, txn: Any, outcome: str) -> None:
        """The transaction committed or aborted: release admissions."""

    @abstractmethod
    def active_txns(self) -> Set[Any]:
        """Transactions currently holding admissions here (R4 targets)."""

    @abstractmethod
    def stable_read_gate(self, obj: str):
        """Generator → bool: wait until reading ``obj`` cannot observe
        an uncommitted write (condition (3) of the weakened R4 for
        recovery reads); False on timeout."""

    @abstractmethod
    def stable_read_now(self, obj: str) -> bool:
        """Would :meth:`stable_read_gate` grant without waiting?  True
        does what that grant does; False changes nothing."""
