"""Execution histories: everything the correctness checkers need.

A :class:`History` records, with timestamps from the simulated clock:

* transaction lifecycle (begin / commit / abort),
* logical operations (what the transaction asked for),
* physical operations, in one list (which copy was touched, in which
  virtual partition — the conflict order on a copy is its record order,
  since operations on one physical object are totally ordered, §3),
* join/depart events of the virtual partition protocol (needed to audit
  properties S1–S3), handed on with each physical op to the auditor.

Reads and writes carry *version tokens*: each logical write is tagged
with a unique token, physical copies remember the token of the write
they hold, and reads report the token they returned.  This makes the
reads-from relation exact even when applications write equal values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

#: token representing the initial database state (a virtual writer T0)
INITIAL_VERSION = ("T0", 0)


class PhysicalOp(NamedTuple):
    """One read or write on one physical copy."""

    time: float
    txn: Any
    kind: str  # "r" or "w"
    obj: str
    copy_pid: int
    value: Any
    version: Any
    vpid: Any


class LogicalOp(NamedTuple):
    """One logical read or write as issued by a transaction."""

    time: float
    txn: Any
    kind: str  # "r" or "w"
    obj: str
    value: Any
    version: Any


@dataclass
class TxnRecord:
    """Everything known about one transaction."""

    txn: Any
    origin: int
    begin_time: float
    status: str = "active"  # active | committed | aborted
    end_time: Optional[float] = None
    abort_reason: Optional[str] = None
    logical_ops: List[LogicalOp] = field(default_factory=list)


class History:
    """Global, append-only record of one simulation run."""

    def __init__(self):
        self.physical_ops: List[PhysicalOp] = []
        self.logical_ops: List[LogicalOp] = []
        self.txns: Dict[Any, TxnRecord] = {}
        self.joins: List[tuple] = []    # (time, pid, vpid, frozenset(view))
        self.departs: List[tuple] = []  # (time, pid, vpid)
        #: optional runtime :class:`~repro.audit.InvariantAuditor`
        self.auditor = None

    # -- transactions ------------------------------------------------------------

    def begin_txn(self, txn: Any, origin: int, time: float) -> TxnRecord:
        if txn in self.txns:
            raise KeyError(f"transaction {txn} already begun")
        record = TxnRecord(txn=txn, origin=origin, begin_time=time)
        self.txns[txn] = record
        return record

    def commit_txn(self, txn: Any, time: float) -> None:
        record = self._txn(txn)
        if record.status != "active":
            raise ValueError(f"transaction {txn} is {record.status}")
        record.status = "committed"
        record.end_time = time

    def abort_txn(self, txn: Any, time: float, reason: str = "") -> None:
        record = self._txn(txn)
        if record.status != "active":
            raise ValueError(f"transaction {txn} is {record.status}")
        record.status = "aborted"
        record.end_time = time
        record.abort_reason = reason

    def finish_txn_once(self, txn: Any, status: str, time: float,
                        reason: str = "") -> bool:
        """Finalize ``txn`` if (and only if) it is still active.

        First finalization wins; later calls are no-ops.  This is the
        race-tolerant form non-blocking commit needs: with Paxos Commit
        a recovery leader may decide (and close) a transaction whose
        coordinator is dead or slow — when the coordinator's own client
        path catches up, its finalization must quietly stand down
        (consensus guarantees both sides carry the same outcome).
        Returns True when this call closed the record.
        """
        if status not in ("committed", "aborted"):
            raise ValueError(f"unknown final status {status!r}")
        record = self._txn(txn)
        if record.status != "active":
            return False
        record.status = status
        record.end_time = time
        if status == "aborted":
            record.abort_reason = reason
        return True

    # -- operations ------------------------------------------------------------

    def record_physical(self, *, time: float, txn: Any, kind: str, obj: str,
                        copy_pid: int, value: Any, version: Any,
                        vpid: Any) -> None:
        if kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {kind!r}")
        op = PhysicalOp(time, txn, kind, obj, copy_pid, value, version, vpid)
        self.physical_ops.append(op)
        if self.auditor is not None:
            self.auditor.on_physical_access(op)

    def record_logical(self, *, time: float, txn: Any, kind: str, obj: str,
                       value: Any, version: Any) -> None:
        if kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {kind!r}")
        op = LogicalOp(time, txn, kind, obj, value, version)
        self.logical_ops.append(op)
        if txn in self.txns:
            self.txns[txn].logical_ops.append(op)

    def record_join(self, *, time: float, pid: int, vpid: Any,
                    view: Iterable[int]) -> None:
        frozen = frozenset(view)
        self.joins.append((time, pid, vpid, frozen))
        if self.auditor is not None:
            self.auditor.on_join(time=time, pid=pid, vpid=vpid, view=frozen)

    def record_depart(self, *, time: float, pid: int, vpid: Any) -> None:
        self.departs.append((time, pid, vpid))
        if self.auditor is not None:
            self.auditor.on_depart(time=time, pid=pid, vpid=vpid)

    # -- queries ------------------------------------------------------------

    def committed(self) -> List[TxnRecord]:
        """Committed transactions in begin order."""
        records = [r for r in self.txns.values() if r.status == "committed"]
        return sorted(records, key=lambda r: r.begin_time)

    def aborted(self) -> List[TxnRecord]:
        records = [r for r in self.txns.values() if r.status == "aborted"]
        return sorted(records, key=lambda r: r.begin_time)

    def partitions_seen(self) -> List[Any]:
        """All vpids occurring in joins, in creation (≺) order."""
        return sorted({vpid for _, _, vpid, _ in self.joins})

    def view_of(self, vpid: Any):
        """The committed view of partition ``vpid`` (S1 makes it unique)."""
        views = {view for _, _, v, view in self.joins if v == vpid}
        if not views:
            raise KeyError(f"no join recorded for {vpid}")
        if len(views) > 1:
            raise AssertionError(
                f"S1 violated in recorded history: {vpid} has views {views}"
            )
        return next(iter(views))

    def members_of(self, vpid: Any) -> set[int]:
        """``members(v)``: processors ever assigned to ``vpid``."""
        return {pid for _, pid, v, _ in self.joins if v == vpid}

    def _txn(self, txn: Any) -> TxnRecord:
        try:
            return self.txns[txn]
        except KeyError:
            raise KeyError(f"unknown transaction {txn}") from None

    def __repr__(self) -> str:
        return (f"History(txns={len(self.txns)}, "
                f"physical={len(self.physical_ops)}, joins={len(self.joins)})")
