"""Execution histories: what the 1SR verdict reads.

A :class:`History` records, with timestamps from the simulated clock:

* transaction lifecycle (begin / commit / abort),
* each transaction's logical operations, until it aborts,
* the first installation of each written version on any copy,
* join/depart events of the virtual partition protocol (needed to audit
  properties S1–S3).

It is also where protocol code reports every fact, as one record passed
to :meth:`History.record`: it keeps what is listed above and hands
every record to its ``readers`` (the auditor, then the tracer; a CP
check adds a :class:`~.serialization.CopyOrder`).

Reads and writes carry *version tokens*: each logical write is tagged
with a unique token, physical copies remember the token of the write
they hold, and reads report the token they returned.  This makes the
reads-from relation exact even when applications write equal values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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


class LogicalAccess(NamedTuple):
    """A logical access: the kept ``op``, the issuing ``pid``, and the
    partition, copies and placement epoch R1/R3 judge it against."""

    op: LogicalOp
    pid: int
    vpid: Any
    targets: Tuple[int, ...]
    epoch: int


#: ``pid`` committed to partition ``vpid`` with ``view``
Join = NamedTuple("Join", [("time", float), ("pid", int), ("vpid", Any),
                           ("view", FrozenSet[int])])
#: ``pid`` left partition ``vpid``
Depart = NamedTuple("Depart", [("time", float), ("pid", int), ("vpid", Any)])


class CrashDepart(Depart):
    """A depart forced by a crash: audited, but not a trace event."""

    __slots__ = ()


# -- facts History keeps no list of: its readers see them, then they go ----

#: a decider reached ``outcome`` for ``txn`` (a 2PC coordinator reports
#: the open of its decision-log entry as ``"undecided"``)
Decision = NamedTuple("Decision", [("time", float), ("pid", int),
                                   ("txn", Any), ("outcome", str)])
#: ``pid`` applied ``txn``'s ``outcome`` to its copies
DecisionApplied = NamedTuple("DecisionApplied", [
    ("time", float), ("pid", int), ("txn", Any), ("outcome", str)])
#: once a commit applied, ``pid``'s copy of ``obj`` holds ``version``
CommittedWrite = NamedTuple("CommittedWrite", [
    ("time", float), ("pid", int), ("obj", str), ("version", Any)])
#: ``pid`` granted a lease of ``duration`` on ``obj`` (probe period ``pi``)
LeaseGrant = NamedTuple("LeaseGrant", [
    ("time", float), ("pid", int), ("obj", str), ("version", Any),
    ("duration", float), ("pi", float)])
#: ``pid`` served ``obj`` from a lease (staleness ``bound``)
LeaseRead = NamedTuple("LeaseRead", [
    ("time", float), ("pid", int), ("obj", str), ("version", Any),
    ("expires_at", float), ("bound", float)])
#: a reshard installed a copy of ``obj`` on ``pid`` from ``source``
CopyInstall = NamedTuple("CopyInstall", [
    ("time", float), ("pid", int), ("obj", str), ("source", int)])
#: a reshard released ``pid``'s copy of ``obj``
CopyRetire = NamedTuple("CopyRetire", [("time", float), ("pid", int),
                                       ("obj", str)])
#: ``pid`` flipped ``obj``'s placement; ``installed`` got new copies
ReshardFlip = NamedTuple("ReshardFlip", [
    ("time", float), ("pid", int), ("obj", str),
    ("old_weights", Dict[int, int]), ("new_weights", Dict[int, int]),
    ("old_epoch", int), ("new_epoch", int), ("installed", List[int])])


@dataclass(slots=True)
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
    """Global record of one simulation run: what the 1SR verdict reads."""

    def __init__(self):
        self.txns: Dict[Any, TxnRecord] = {}
        self.joins: List[Join] = []
        self.departs: List[Depart] = []
        #: ``(obj, version) -> position`` of the version's first write
        #: record, physical or logical: the order versions were installed
        self.installed: Dict[Tuple[str, Any], int] = {}
        #: who :meth:`record` hands each fact to, in order: each has a
        #: ``read(fact)``; ``Cluster`` wires the auditor, then the tracer
        self.readers: tuple = ()

    # -- transactions ------------------------------------------------------------

    def begin_txn(self, txn: Any, origin: int, time: float) -> TxnRecord:
        if txn in self.txns:
            raise KeyError(f"transaction {txn} already begun")
        record = TxnRecord(txn=txn, origin=origin, begin_time=time)
        self.txns[txn] = record
        return record

    def commit_txn(self, txn: Any, time: float) -> None:
        self._close(txn, time).status = "committed"

    def abort_txn(self, txn: Any, time: float, reason: str = "") -> None:
        record = self._close(txn, time)
        record.status = "aborted"
        record.abort_reason = reason
        record.logical_ops = ()  # no verdict reads an aborted txn's ops

    def _close(self, txn: Any, time: float) -> TxnRecord:
        record = self._txn(txn)
        if record.status != "active":
            raise ValueError(f"transaction {txn} is {record.status}")
        record.end_time = time
        return record

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
        if self._txn(txn).status != "active":
            return False
        if status == "committed":
            self.commit_txn(txn, time)
        else:
            self.abort_txn(txn, time, reason)
        return True

    # -- the one entry point -------------------------------------------------

    def record(self, fact) -> None:
        """Report one fact: keep what the verdict reads of an access, a
        join or a depart, then hand it to every reader in order."""
        kind = type(fact)
        if kind is PhysicalOp or kind is LogicalAccess:
            op = fact if kind is PhysicalOp else fact.op
            if op.kind == "w":
                self.installed.setdefault((op.obj, op.version), len(self.installed))
            elif op.kind != "r":
                raise ValueError(f"kind must be 'r' or 'w', got {op.kind!r}")
            if kind is LogicalAccess:
                record = self.txns.get(op.txn)
                if record is not None and record.status != "aborted":
                    record.logical_ops.append(op)
        elif kind is Join:
            self.joins.append(fact)
        elif kind is Depart or kind is CrashDepart:
            self.departs.append(fact)
        for reader in self.readers:
            reader.read(fact)

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
                f"installed={len(self.installed)}, joins={len(self.joins)})")
