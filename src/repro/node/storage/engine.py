"""The durable storage engine: the copy table, journalled into a WAL.

:class:`StorageEngine` is what a :class:`~repro.node.processor.
Processor` exposes as ``.store`` — Fig. 3's one stable store.  It holds
the processor's physical copies (``place`` / ``read`` / ``write`` /
``install`` / ``log_since`` / ``apply_log`` — §5's ``value``/``date``
functions and the §6 write logs), its durable cells (``max-id``, each
Paxos acceptor instance: one plain value per name) and its commit
decision log, and journals every mutation of them into a typed
write-ahead log:

* crash recovery is replay: :meth:`StorageEngine.rebuilt` restores the
  last checkpoint and replays the WAL tail, reproducing the pre-crash
  durable state bit for bit (``tests/integration/test_crash_replay.py``);
* a checkpoint every ``checkpoint_every`` appends truncates the journal
  and copies only what changed since the last one; copies keep a §6
  write log only under ``keep_log`` (the cluster's ``catchup="log"``,
  the logs' one reader), bounded by **compaction**
  (``log_retain``): ``log_since`` raises ``LogTruncated`` below its floor;
* the 2PC force-write points (prepare records, decision-log entries,
  ``max-id`` bumps) are journalled as *forced* records, giving the
  protocol layer an explicit durability cost model to charge
  (``ProtocolConfig.storage_append_cost`` / ``storage_sync_cost``) and
  :class:`StorageStats` the counters observability reports.

Journalling, checkpoints and the write logs cost no model time: with
zero storage costs (the default) a run's trace is the one the
un-journalled copy table produced — pinned by the trace-identity
property in ``tests/properties/test_storage_transparency.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from .checkpoint import (
    EMPTY_CHECKPOINT,
    Checkpoint,
    Snapshot,
    freeze,
    layered,
    restore_copies,
)
from .store import NO_FLOOR, Copy, LogEntry
from .wal import (
    REC_APPLY,
    REC_CELL,
    REC_DECISION,
    REC_INSTALL,
    REC_PLACE,
    REC_PREPARE,
    REC_RETIRE,
    REC_WRITE,
    LogTruncated,
    WalRecord,
    WriteAheadLog,
)

#: WAL appends between two automatic checkpoints unless set (0 = never)
CHECKPOINT_EVERY = 500


@dataclass
class StorageStats:
    """Durability cost accounting (cumulative, crash-proof); a
    cluster's engines share one."""

    #: WAL records appended (forced ones included)
    wal_appends: int = 0
    #: appends that were force-synced: one per charged sync (the
    #: commit force points); the plain appends of that sync ride it
    forced_syncs: int = 0
    #: checkpoints taken (manual + automatic)
    checkpoints: int = 0
    #: per-copy log entries discarded by compaction
    compacted_entries: int = 0
    #: ``log_since`` requests refused below the compaction floor
    truncated_reads: int = 0
    #: WAL records replayed by :meth:`StorageEngine.rebuilt`
    replayed_records: int = 0
    #: estimated bytes replayed at recovery
    replayed_bytes: int = 0


class StorageEngine:
    """All durable state of one processor, over a write-ahead log."""

    def __init__(self, pid: int, checkpoint_every: int = CHECKPOINT_EVERY,
                 log_retain: Optional[int] = None, keep_log: bool = True):
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0: {checkpoint_every}")
        if log_retain is not None and log_retain < 1:
            raise ValueError(f"log_retain must be None or >= 1: {log_retain}")
        self.pid = pid
        #: auto-checkpoint after this many WAL appends (0 = manual only)
        self.checkpoint_every = checkpoint_every
        #: per-copy log entries kept at compaction (None = never compact)
        self.log_retain = log_retain
        #: copies keep a §6 write log (``Copy.log`` is None otherwise)
        self.keep_log = keep_log
        self.wal = WriteAheadLog()
        self.stats = StorageStats()
        self._copies: Dict[str, Copy] = {}
        #: copies whose write log grew since the last compaction
        self._grown: Set[str] = set()
        #: durable cells, by name (absent = never written: None)
        self._cells: Dict[str, Any] = {}
        #: journalled coordinator decisions (txn -> latest outcome)
        self._decisions: Dict[Any, str] = {}
        #: what :meth:`rebuilt` restores before replaying the WAL tail
        self.last_checkpoint: Checkpoint = EMPTY_CHECKPOINT
        self._appends_since_checkpoint = 0
        self._replaying = False

    # -- journalling --------------------------------------------------------

    def _journal(self, kind: str, forced: bool = False,
                 obj: Optional[str] = None, value: Any = None,
                 date: Any = None, version: Any = None,
                 size: Optional[int] = None, cell: Optional[str] = None,
                 txn: Any = None, outcome: Optional[str] = None) -> None:
        if self._replaying:
            return
        self.wal.append(kind, forced, obj, value, date, version, size, cell, txn, outcome)
        self.stats.wal_appends += 1
        if forced:
            self.stats.forced_syncs += 1
        self._appends_since_checkpoint += 1
        every = self.checkpoint_every
        if every and self._appends_since_checkpoint >= every:
            self.checkpoint()

    def _get(self, obj: str) -> Copy:
        try:
            return self._copies[obj]
        except KeyError:
            raise KeyError(f"no copy of {obj!r} on processor {self.pid}") from None

    def _set(self, kind: str, copy: Copy, value: Any, date: Any,
             version: Any) -> None:
        """Overwrite ``copy``, extend its write log if it keeps one,
        journal a ``kind`` record — what a write, an install, an applied
        catch-up entry and the replay of any of the three leave behind."""
        copy.value = value
        copy.date = date
        copy.version = version
        if copy.log is not None:
            copy.log.append(LogEntry(date, value, version))
            self._grown.add(copy.obj)
        self._journal(kind, False, copy.obj, value, date, version)

    # -- placement ------------------------------------------------------------

    def place(self, obj: str, initial: Any = None, date: Any = None,
              size: int = 1, version: Any = None) -> None:
        """Create the local copy of logical object ``obj``.

        ``version`` is the opaque token identifying the write that
        produced the current value; the correctness checkers use it to
        compute the exact reads-from relation.
        """
        if obj in self._copies:
            raise KeyError(f"copy of {obj!r} already placed on {self.pid}")
        if size < 1:
            raise ValueError("object size must be at least 1")
        log = [LogEntry(date, initial, version)] if self.keep_log else None
        self._copies[obj] = Copy(obj, initial, date, size, version, log)
        self._journal(REC_PLACE, obj=obj, value=initial, date=date, size=size, version=version)

    def holds(self, obj: str) -> bool:
        """True if this processor has a copy of ``obj``."""
        return obj in self._copies

    def copy_of(self, obj: str) -> Optional[Copy]:
        """The local copy of ``obj``, read-only (``None``: no copy)."""
        return self._copies.get(obj)

    def retire(self, obj: str) -> None:
        """Drop the local copy — a reshard moved it to other processors.

        Releases the copy's storage (value, write log, floor).  Raises
        ``KeyError`` if there is no copy to retire.
        """
        self._get(obj)
        del self._copies[obj]
        self._grown.discard(obj)
        self._journal(REC_RETIRE, obj=obj)

    @property
    def local_objects(self) -> set[str]:
        """Fig. 3's ``local``: logical objects with a copy here."""
        return set(self._copies)

    # -- access ------------------------------------------------------------

    def read(self, obj: str) -> tuple[Any, Any]:
        """Physical read: ``(value, date)`` of the local copy."""
        copy = self._get(obj)
        return copy.value, copy.date

    #: the same read, by the name recovery and the checks call it
    peek = read

    def write(self, obj: str, value: Any, date: Any,
              version: Any = None) -> None:
        """Physical write with its logical date; appended to the log."""
        self._set(REC_WRITE, self._get(obj), value, date, version)

    def date(self, obj: str) -> Any:
        """The logical date of the local copy."""
        return self._get(obj).date

    def version(self, obj: str) -> Any:
        """The version token of the write the copy currently holds."""
        return self._get(obj).version

    def size(self, obj: str) -> int:
        """Declared size of the object (cost unit for full transfers)."""
        return self._get(obj).size

    # -- recovery support ---------------------------------------------------

    def install(self, obj: str, value: Any, date: Any,
                version: Any = None) -> None:
        """Overwrite the copy during partition initialization (R5 recover).

        Journalled as an install, not a transaction write, and logged so
        later catch-ups see a consistent history.
        """
        self._set(REC_INSTALL, self._get(obj), value, date, version)

    def log_since(self, obj: str, after: Any) -> List[LogEntry]:
        """Log entries with date strictly greater than ``after``.

        The §6 optimization: these are exactly the writes a copy with
        date ``after`` missed (by Theorem 1', writes are ordered by
        partition creation order).  ``after=None`` returns everything.

        Raises :class:`LogTruncated` when compaction may have discarded
        entries the answer should contain: the full history was
        requested (``after=None``) of a compacted log, or ``after``
        lies below the retained floor — or the copy keeps no log at all.
        A ``None``-dated floor (only the initial placement entry was
        discarded) still answers any dated ``after`` exactly, since
        ``None``-dated entries are never part of a dated answer.
        """
        copy = self._get(obj)
        floor, log = copy.floor, copy.log
        if log is None or (floor is not NO_FLOOR and (
                after is None or (floor is not None and after < floor))):
            self.stats.truncated_reads += 1
            raise LogTruncated(obj, after, floor)
        return [entry for entry in log
                if after is None or entry.date is not None and entry.date > after]

    def apply_log(self, obj: str, entries: Iterable[LogEntry]) -> int:
        """Apply missed writes in order; returns how many were applied
        (stale and ``None``-dated entries are skipped, unjournalled)."""
        copy = self._get(obj)
        applied = 0
        for entry in entries:
            if entry.date is not None and (copy.date is None
                                           or entry.date > copy.date):
                self._set(REC_APPLY, copy, entry.value, entry.date, entry.version)
                applied += 1
        return applied

    # -- durable cells -------------------------------------------------------

    def cell(self, name: str) -> Any:
        """A durable cell's value (None: never written)."""
        return self._cells.get(name)

    def write_cell(self, name: str, value: Any, forced: bool = True) -> None:
        """Set and journal a durable cell (unforced: it rides a force)."""
        self._cells[name] = value
        self._journal(REC_CELL, forced, cell=name, value=value)

    # -- 2PC force-write points ---------------------------------------------

    def record_prepare(self, txn: Any, objects: Any = None) -> None:
        """Journal a participant's yes-vote prepare record (forced)."""
        self._journal(REC_PREPARE, forced=True, txn=txn, value=sorted(objects) if objects else None)

    def record_decision(self, txn: Any, outcome: str,
                        forced: bool = True) -> None:
        """Journal a coordinator decision-log entry.

        ``forced=True`` for a commit that wrote (the force-write before
        any decide message leaves); an abort and a read-only commit ride
        unforced (presumed abort).
        """
        self._decisions[txn] = outcome
        self._journal(REC_DECISION, forced=forced, txn=txn, outcome=outcome)

    def decision_of(self, txn: Any) -> Optional[str]:
        """One transaction's journalled outcome (O(1); None = no entry).

        The protocol layer retires decided entries from its in-memory
        map and answers late ``txn-status`` queries from here instead.
        """
        return self._decisions.get(txn)

    # -- checkpoints and compaction -------------------------------------------

    def snapshot(self) -> Snapshot:
        """Everything durable; changes nothing."""
        return self._advanced({})

    def _advanced(self, trimmed: Dict[str, int]) -> Snapshot:
        """The last checkpoint's state brought up to date for what
        changed since: a checkpoint truncates the journal, so that is
        what the WAL names, plus the copies an (unjournalled) compaction
        ``trimmed``.  Those copies are re-frozen (dropped if retired), the
        cells and decisions written are one new :func:`layered` top
        layer, and every other entry is shared."""
        base, wal = self.last_checkpoint.state, self.wal
        copies = dict(base.copies)
        for obj in {**{r.obj: None for r in wal if r.obj is not None}, **trimmed}:
            if obj in self._copies:
                copies[obj] = freeze(self._copies[obj])
            else:
                copies.pop(obj, None)
        cells = {r.cell: r.value for r in wal if r.cell is not None}
        decisions = {r.txn: r.outcome for r in wal if r.kind == REC_DECISION}
        return Snapshot(copies, layered(base.cells, cells), layered(base.decisions, decisions))

    def checkpoint(self, compact: bool = True) -> Checkpoint:
        """Snapshot all durable state and truncate the journal.

        Compaction (when ``log_retain`` is set, unless ``compact=False``)
        runs *before* the snapshot so the checkpoint captures the
        trimmed logs and their floors (:mod:`.checkpoint`); it visits only
        the logs that grew since the last one, and the snapshot re-freezes
        the copies it trimmed (nothing journals a trim).
        """
        trimmed: Dict[str, int] = {}
        if compact and self.log_retain is not None:
            for obj in self._grown:
                copy = self._copies[obj]
                excess = len(copy.log or ()) - self.log_retain
                if excess > 0:
                    copy.floor = copy.log[excess - 1].date
                    del copy.log[:excess]
                    trimmed[obj] = excess
            self._grown = set()
        self.stats.compacted_entries += sum(trimmed.values())
        self.last_checkpoint = Checkpoint(self.wal.tail_lsn, self._advanced(trimmed))
        self.wal.truncate()
        self._appends_since_checkpoint = 0
        self.stats.checkpoints += 1
        return self.last_checkpoint

    def retained_entries(self) -> int:
        """Total write-log entries currently held across all copies."""
        return sum(len(copy.log or ()) for copy in self._copies.values())

    # -- crash recovery -------------------------------------------------------

    def rebuilt(self) -> "StorageEngine":
        """A fresh engine recovered from checkpoint + WAL replay.

        This is the honest crash-recovery model: nothing of the live
        state is reused — the new engine starts from what is on disk
        (the last checkpoint and a fork of the journal), restores the
        snapshot and applies the replay tail on top.  It finishes with a
        fresh (uncompacted) checkpoint of its rebuilt state, like a real
        recovery would, so its own journal starts clean.
        """
        engine = StorageEngine(self.pid, self.checkpoint_every, self.log_retain, self.keep_log)
        engine.last_checkpoint = self.last_checkpoint
        engine.wal = self.wal.fork()
        state = self.last_checkpoint.state
        engine._copies = restore_copies(state.copies)
        # an uncompacted checkpoint may have stored logs over log_retain
        engine._grown = set(engine._copies)
        engine._cells = dict(state.cells)
        engine._decisions = dict(state.decisions)
        engine._replaying = True
        for record in engine.wal:
            engine._replay(record)
            engine.stats.replayed_records += 1
            engine.stats.replayed_bytes += record.cost_bytes()
        engine._replaying = False
        engine.checkpoint(compact=False)
        return engine

    def _replay(self, record: WalRecord) -> None:
        """Redo one record; ``_replaying`` keeps the redo unjournalled.
        A prepare record is participant-volatile: nothing to redo."""
        if record.kind == REC_PLACE:
            self.place(record.obj, initial=record.value, date=record.date,
                       size=record.size or 1, version=record.version)
        elif record.kind in (REC_WRITE, REC_INSTALL, REC_APPLY):
            self._set(record.kind, self._get(record.obj), record.value, record.date, record.version)
        elif record.kind == REC_CELL:
            self._cells[record.cell] = record.value
        elif record.kind == REC_DECISION:
            self._decisions[record.txn] = record.outcome
        elif record.kind == REC_RETIRE:
            self.retire(record.obj)

    def __repr__(self) -> str:
        return (f"StorageEngine(pid={self.pid}, "
                f"objects={sorted(self._copies)}, "
                f"wal={len(self.wal)} records)")
