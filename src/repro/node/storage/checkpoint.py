"""Checkpoints and the per-copy log compaction they run.

A snapshot is a record of everything durable, keyed by name — the
copies (with their retained write logs and compaction floors), the
durable cells, and the decision log; a checkpoint is a snapshot anchored
at a WAL LSN.  Recovery restores the snapshot and replays the WAL tail
after that LSN; the WAL prefix the snapshot captures is discarded.  A
checkpoint copies only what changed: the changed copies, and one new
:func:`layered` map of the cells and decisions over the last one's.

Compaction bounds the §6 write logs: at checkpoint time
(:meth:`~repro.node.storage.engine.StorageEngine.checkpoint`) each log
that grew since the last compaction is trimmed to its newest
``log_retain`` entries, and the date of the newest *discarded* entry
(logs are append-ordered) becomes the copy's **retained floor**.  A
``log_since(obj, after)`` with ``after`` below the floor can no longer
be answered exactly — the engine raises :class:`~repro.node.storage.
wal.LogTruncated` and the catch-up path falls back to a full-object
transfer (the §6 trade made explicit: bounded log memory against
occasionally shipping the whole object).
"""

from __future__ import annotations

from collections import ChainMap
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from .store import Copy, LogEntry


class CopySnapshot(NamedTuple):
    """One copy's durable state at snapshot time."""

    obj: str
    value: Any
    date: Any
    size: int
    version: Any
    #: the retained (possibly compacted) write log, oldest first (or None)
    log: Optional[Tuple[LogEntry, ...]]
    #: newest compacted-away date; ``NO_FLOOR`` = log complete
    floor: Any


class Snapshot(NamedTuple):
    """Everything durable, by name; snapshots share entries and layers nothing mutates."""

    copies: Dict[str, CopySnapshot]
    cells: Mapping[str, Any]
    decisions: Mapping[Any, str]


class Checkpoint(NamedTuple):
    """The durable ``state`` frozen at WAL position ``lsn``."""

    lsn: int
    state: Snapshot


EMPTY_CHECKPOINT = Checkpoint(0, Snapshot({}, ChainMap(), ChainMap()))


def freeze(copy: Copy) -> CopySnapshot:
    """One copy's durable state, sharing nothing mutable with it."""
    return CopySnapshot(copy.obj, copy.value, copy.date, copy.size, copy.version,
                        None if copy.log is None else tuple(copy.log), copy.floor)


def layered(base: ChainMap, delta: Dict[Any, Any]) -> ChainMap:
    """``delta`` over ``base``'s layers, mutating neither; while the top
    layer is as large as the one below, the two merge into a new dict
    (a binary counter's carry: few layers, amortized merges)."""
    maps = [delta, *base.maps]
    while len(maps) > 1 and len(maps[0]) >= len(maps[1]):
        maps[:2] = [{**maps[1], **maps[0]}]
    return ChainMap(*maps)


def restore_copies(snaps: Mapping[str, CopySnapshot]) -> Dict[str, Copy]:
    """Rebuild a copy table from snapshots."""
    return {obj: Copy(obj, snap.value, snap.date, snap.size, snap.version,
                      None if snap.log is None else list(snap.log), snap.floor)
            for obj, snap in snaps.items()}

