"""Checkpoints and per-copy log compaction.

A snapshot is a record of everything durable, keyed by name — the
copies (with their retained write logs and compaction floors), the
durable cells, and the decision log; a checkpoint is a snapshot anchored
at a WAL LSN.  Recovery restores the snapshot and replays the WAL tail
after that LSN; the WAL prefix the snapshot captures is discarded.

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

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .store import Copy, LogEntry


@dataclass(frozen=True)
class CopySnapshot:
    """One copy's durable state at snapshot time."""

    obj: str
    value: Any
    date: Any
    version: Any
    size: int
    #: the retained (possibly compacted) write log, oldest first (or None)
    log: Optional[Tuple[LogEntry, ...]]
    #: newest compacted-away date; ``NO_FLOOR`` = log complete
    floor: Any


#: sentinel distinguishing "never compacted" from a ``None``-dated floor
#: (the initial placement entry carries ``date=None`` and can itself be
#: compacted away)
NO_FLOOR = object()


@dataclass(frozen=True)
class Snapshot:
    """Everything durable, by name; snapshots share entries, never a mapping."""

    copies: Dict[str, CopySnapshot] = field(default_factory=dict)
    cells: Dict[str, Any] = field(default_factory=dict)
    decisions: Dict[Any, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Checkpoint:
    """The durable ``state`` frozen at WAL position ``lsn``."""

    lsn: int
    state: Snapshot


EMPTY_CHECKPOINT = Checkpoint(lsn=0, state=Snapshot())


def freeze(copy: Copy, floor: Any) -> CopySnapshot:
    """One copy's durable state, sharing nothing mutable with it."""
    return CopySnapshot(obj=copy.obj, value=copy.value, date=copy.date,
                        version=copy.version, size=copy.size,
                        floor=floor, log=None if copy.log is None else tuple(copy.log))


def restore_copies(snaps: Dict[str, CopySnapshot]
                   ) -> Tuple[Dict[str, Copy], Dict[str, Any]]:
    """Rebuild a copy table (and its floors) from snapshots."""
    copies: Dict[str, Copy] = {}
    floors: Dict[str, Any] = {}
    for obj, snap in snaps.items():
        copies[obj] = Copy(obj, snap.value, snap.date, snap.size, snap.version,
                           None if snap.log is None else list(snap.log))
        if snap.floor is not NO_FLOOR:
            floors[obj] = snap.floor
    return copies, floors


def compact_copies(copies: Dict[str, Copy], retain: int,
                   floors: Dict[str, Any]) -> Dict[str, int]:
    """Trim every copy's log to its newest ``retain`` entries, in place.

    The date of a copy's newest discarded entry (logs are append-ordered,
    so that is the largest date compacted away) becomes its floor in
    ``floors``; with nothing to discard the existing floor is kept.
    Returns ``{obj: entries discarded}`` for the copies it trimmed —
    nothing journals a trim, so the caller must re-freeze those.
    """
    trimmed: Dict[str, int] = {}
    for obj, copy in copies.items():
        log = copy.log or []  # a copy that keeps no log has nothing to trim
        excess = len(log) - retain
        if excess > 0:
            floors[obj] = log[excess - 1].date
            del log[:excess]
            trimmed[obj] = excess
    return trimmed
