"""Processor runtime: tasks, request handlers, mailboxes, RPC, durable storage."""

from .processor import NoResponse, Processor
from .storage import (
    Copy,
    CopyStore,
    DurableCell,
    LogEntry,
    LogTruncated,
    StorageEngine,
    StoragePolicy,
    StorageStats,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Copy",
    "CopyStore",
    "DurableCell",
    "LogEntry",
    "LogTruncated",
    "NoResponse",
    "Processor",
    "StorageEngine",
    "StoragePolicy",
    "StorageStats",
    "WalRecord",
    "WriteAheadLog",
]
