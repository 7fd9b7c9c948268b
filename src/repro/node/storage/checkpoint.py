"""Checkpoints and per-copy log compaction.

A snapshot is an immutable record of everything durable — the copies
(with their retained write logs and compaction floors), the durable
cells, and the decision log; a checkpoint is a snapshot anchored at a
WAL LSN.  Recovery restores the snapshot and replays the WAL tail after
that LSN; the WAL prefix the snapshot captures can be discarded.

Compaction bounds the §6 write logs: at checkpoint time each copy's
log is trimmed to its newest ``retain`` entries, and the date of the
newest *discarded* entry becomes the copy's **retained floor**.  A
``log_since(obj, after)`` with ``after`` below the floor can no longer
be answered exactly — the engine raises :class:`~repro.node.storage.
wal.LogTruncated` and the catch-up path falls back to a full-object
transfer (the §6 trade made explicit: bounded log memory against
occasionally shipping the whole object).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .store import Copy, LogEntry


@dataclass(frozen=True)
class CopySnapshot:
    """One copy's durable state at snapshot time."""

    obj: str
    value: Any
    date: Any
    version: Any
    size: int
    #: the retained (possibly compacted) write log, oldest first
    log: Tuple[LogEntry, ...]
    #: newest compacted-away date; ``NO_FLOOR`` = log complete
    floor: Any


#: sentinel distinguishing "never compacted" from a ``None``-dated floor
#: (the initial placement entry carries ``date=None`` and can itself be
#: compacted away)
NO_FLOOR = object()


@dataclass(frozen=True)
class Snapshot:
    """Everything durable, in canonical (sorted) order."""

    copies: Tuple[CopySnapshot, ...] = ()
    cells: Tuple[Tuple[str, Any], ...] = ()
    decisions: Tuple[Tuple[Any, str], ...] = ()


@dataclass(frozen=True)
class Checkpoint:
    """The durable ``state`` frozen at WAL position ``lsn``."""

    lsn: int
    state: Snapshot


EMPTY_CHECKPOINT = Checkpoint(lsn=0, state=Snapshot())


def snapshot_copies(copies: Dict[str, Copy],
                    floors: Dict[str, Any]) -> Tuple[CopySnapshot, ...]:
    """Freeze every copy of the table (sorted by object name)."""
    return tuple(
        CopySnapshot(obj=obj, value=copy.value, date=copy.date,
                     version=copy.version, size=copy.size,
                     log=tuple(copy.log), floor=floors.get(obj, NO_FLOOR))
        for obj, copy in sorted(copies.items()))


def restore_copies(snaps: Tuple[CopySnapshot, ...]
                   ) -> Tuple[Dict[str, Copy], Dict[str, Any]]:
    """Rebuild a copy table (and its floors) from snapshots."""
    copies: Dict[str, Copy] = {}
    floors: Dict[str, Any] = {}
    for snap in snaps:
        copies[snap.obj] = Copy(snap.obj, snap.value, snap.date,
                                size=snap.size, version=snap.version,
                                log=list(snap.log))
        if snap.floor is not NO_FLOOR:
            floors[snap.obj] = snap.floor
    return copies, floors


def compact_copies(copies: Dict[str, Copy], retain: int,
                   floors: Dict[str, Any]) -> int:
    """Trim every copy's log to its newest ``retain`` entries, in place.

    The date of a copy's newest discarded entry (logs are append-ordered,
    so that is the largest date compacted away) becomes its floor in
    ``floors``; with nothing to discard the existing floor is kept.
    Returns the total number of discarded entries.
    """
    total = 0
    for obj, copy in copies.items():
        excess = len(copy.log) - retain
        if excess > 0:
            floors[obj] = copy.log[excess - 1].date
            del copy.log[:excess]
            total += excess
    return total
