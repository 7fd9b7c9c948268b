"""Durable per-processor storage.

* :mod:`~repro.node.storage.engine` — :class:`StorageEngine`, the one
  stable store a processor holds: its physical copies (values, dates,
  versions, §6 write logs), its durable cells and its
  decision log, plus the :class:`StorageStats` counters;
* :mod:`~repro.node.storage.store` — the :class:`Copy` and
  :class:`LogEntry` records the engine's copy table is made of;
* :mod:`~repro.node.storage.wal` — the typed append-only write-ahead
  log (:class:`WriteAheadLog`) every durable mutation is journalled to;
* :mod:`~repro.node.storage.checkpoint` — snapshots and per-copy log
  compaction with retained-floor tracking.
"""

from .checkpoint import Checkpoint, CopySnapshot, Snapshot
from .engine import StorageEngine, StorageStats
from .store import NO_FLOOR, Copy, LogEntry
from .wal import (
    RECORD_KINDS,
    LogTruncated,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Checkpoint",
    "Copy",
    "CopySnapshot",
    "LogEntry",
    "LogTruncated",
    "NO_FLOOR",
    "RECORD_KINDS",
    "Snapshot",
    "StorageEngine",
    "StorageStats",
    "WalRecord",
    "WriteAheadLog",
]
