"""Processor runtime: tasks, request handlers, calls, durable storage."""

from .processor import Processor
from .storage import (
    Copy,
    DurableCell,
    LogEntry,
    LogTruncated,
    StorageEngine,
    StorageStats,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Copy",
    "DurableCell",
    "LogEntry",
    "LogTruncated",
    "Processor",
    "StorageEngine",
    "StorageStats",
    "WalRecord",
    "WriteAheadLog",
]
