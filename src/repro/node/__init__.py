"""Processor runtime: tasks, request handlers, calls, durable storage."""

from .processor import Processor
from .storage import (
    Copy,
    LogEntry,
    LogTruncated,
    StorageEngine,
    StorageStats,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Copy",
    "LogEntry",
    "LogTruncated",
    "Processor",
    "StorageEngine",
    "StorageStats",
    "WalRecord",
    "WriteAheadLog",
]
