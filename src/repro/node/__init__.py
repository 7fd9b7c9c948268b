"""Processor runtime: tasks, request handlers, RPC, durable storage."""

from .processor import NoResponse, Processor
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
    "NoResponse",
    "Processor",
    "StorageEngine",
    "StorageStats",
    "WalRecord",
    "WriteAheadLog",
]
