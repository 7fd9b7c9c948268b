"""Transaction context threaded through logical operations.

Carries the identifiers and accumulators that rule R4's commit-time
validation needs: where the transaction ran (partition ids), which
processors served its physical accesses, and what it read and wrote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

TxnId = Tuple[int, int]  # (origin pid, per-processor sequence number)


@dataclass
class TransactionContext:
    """Mutable per-transaction bookkeeping."""

    txn_id: TxnId
    #: globally unique TSO timestamp: (begin_time, pid, seq)
    timestamp: Any = None
    participants: Set[int] = field(default_factory=set)
    vpids: Set[Any] = field(default_factory=set)
    objects_read: Set[str] = field(default_factory=set)
    objects_written: Set[str] = field(default_factory=set)
    #: non-None once the transaction is doomed (it may only abort)
    poisoned: Optional[str] = None
    #: obj -> (version token, serve time) for each logical read — the
    #: client tier's lease grants need to know *what* was read and
    #: *when* the copy served it
    read_versions: Dict[str, Tuple[Any, float]] = field(default_factory=dict)
    #: obj -> placement epoch each logical access routed on; the commit
    #: vote re-checks these against the authoritative map so a reshard
    #: flip mid-transaction aborts the straggler (rule R4's reshard arm)
    placement_epochs: Dict[str, int] = field(default_factory=dict)
    _version_seq: int = 0

    @property
    def objects(self) -> Set[str]:
        """Every logical object the transaction referenced."""
        return self.objects_read | self.objects_written

    def next_version(self) -> Tuple[TxnId, int]:
        """A fresh globally unique version token for a logical write."""
        self._version_seq += 1
        return (self.txn_id, self._version_seq)

    def note_access(self, kind: str, obj: str, server: int,
                    vpid: Any) -> None:
        """Record a served physical access."""
        self.participants.add(server)
        self.vpids.add(vpid)
        if kind == "r":
            self.objects_read.add(obj)
        else:
            self.objects_written.add(obj)

    def poison(self, reason: str) -> None:
        """Mark the transaction as abort-only (first reason wins)."""
        if self.poisoned is None:
            self.poisoned = reason

    def __repr__(self) -> str:
        return f"Txn{self.txn_id}"
