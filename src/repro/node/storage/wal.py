"""The typed append-only write-ahead log.

Every durable mutation a processor performs — copy writes, recovery
installs, log catch-ups, decision-log entries, prepare records, and
durable-cell bumps (``max-id``) — is journalled here as one typed,
LSN-stamped record *before* it is considered durable.  Crash recovery
is then honest by construction: load the last checkpoint, replay the
records after its LSN, and the rebuilt state equals the pre-crash
durable state (pinned by ``tests/integration/test_crash_replay.py``).

Records are either plain **appends** (copy writes ride on the next
group sync) or **forced** (the commit force points: a writing
participant's prepare record, the coordinator's commit decision, a
``max-id`` bump, one Paxos acceptor record per charged sync).  A plain
append made under a force — a co-located acceptor's accept beside its
RM's prepare record, the other instances of an acceptor's batch —
rides that force.
Gray & Lamport's *Consensus on Transaction Commit* makes the forced
writes the central cost metric of a commit protocol; the protocol layer
charges ``ProtocolConfig.storage_sync_cost`` model time at each one,
and :class:`~repro.node.storage.engine.StorageStats` counts both kinds.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional

# -- record kinds -----------------------------------------------------------

#: a copy was created (``place``)
REC_PLACE = "place"
#: a transaction's physical write (``write``)
REC_WRITE = "write"
#: a recovery overwrite (``install``, R5)
REC_INSTALL = "install"
#: one missed log entry applied during §6 catch-up (``apply_log``)
REC_APPLY = "apply"
#: a durable scalar cell changed (e.g. the protocol's ``max-id``)
REC_CELL = "cell"
#: a coordinator decision-log entry (commit / abort)
REC_DECISION = "decision"
#: a participant's yes-vote prepare record (2PC uncertainty window)
REC_PREPARE = "prepare"
#: a copy was retired — its storage released — after a reshard moved
#: it elsewhere (``retire``)
REC_RETIRE = "retire"

RECORD_KINDS = frozenset({
    REC_PLACE, REC_WRITE, REC_INSTALL, REC_APPLY,
    REC_CELL, REC_DECISION, REC_PREPARE, REC_RETIRE,
})


class LogTruncated(LookupError):
    """A ``log_since`` request reaches below the compaction floor.

    Entries with dates at or below the floor were compacted away, so a
    partial answer would silently miss writes — the §6 catch-up must
    fall back to a full-object transfer instead (see
    ``core/copy_update.py``).
    """

    def __init__(self, obj: str, after: Any, floor: Any):
        super().__init__(
            f"log of {obj!r} truncated: entries after {after!r} are "
            f"incomplete below the compaction floor {floor!r}"
        )
        self.obj = obj
        self.after = after
        self.floor = floor


class WalRecord(NamedTuple):
    """One journalled mutation.

    The fields beyond ``lsn``/``kind``/``forced`` are kind-dependent;
    unused ones stay ``None``.  Records are immutable by type (a tuple:
    assigning a field raises ``AttributeError``), so replay and
    accounting may share them freely.
    """

    lsn: int
    kind: str
    forced: bool = False
    obj: Optional[str] = None
    value: Any = None
    date: Any = None
    version: Any = None
    size: Optional[int] = None
    cell: Optional[str] = None
    txn: Any = None
    outcome: Optional[str] = None

    def cost_bytes(self) -> int:
        """A deterministic size estimate for replay-cost accounting.

        The simulation has no real serialization; the byte figure is
        the canonical repr length of the record's payload, which is
        stable across runs of one seed (everything stored is builtin
        scalars, tuples, and ``VpId``-style value types).
        """
        payload = (self.kind, self.obj, self.value, self.date,
                   self.version, self.size, self.cell, self.txn,
                   self.outcome)
        return len(repr(payload))


class WriteAheadLog:
    """The append-only journal: strictly increasing LSNs, replayable tail.

    A checkpoint is taken at ``tail_lsn`` and captures every retained
    record, so it ``truncate``s them all; what accumulates afterwards is
    exactly the replay tail recovery needs.
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        #: LSN of the newest record ever appended (0 = none yet);
        #: survives truncation — it anchors checkpoint positions
        self.tail_lsn = 0

    def append(self, kind: str, forced: bool = False,
               obj: Optional[str] = None, value: Any = None,
               date: Any = None, version: Any = None,
               size: Optional[int] = None, cell: Optional[str] = None,
               txn: Any = None, outcome: Optional[str] = None) -> WalRecord:
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        self.tail_lsn += 1
        record = WalRecord(self.tail_lsn, kind, forced, obj, value, date,
                           version, size, cell, txn, outcome)
        self._records.append(record)
        return record

    def truncate(self) -> None:
        """Drop every record: a checkpoint at ``tail_lsn`` holds them all."""
        self._records = []

    def fork(self) -> "WriteAheadLog":
        """An independent journal continuing from the same records."""
        twin = WriteAheadLog()
        twin._records, twin.tail_lsn = list(self._records), self.tail_lsn
        return twin

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __repr__(self) -> str:
        return (f"WriteAheadLog({len(self._records)} records, tail_lsn={self.tail_lsn})")
