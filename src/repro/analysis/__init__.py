"""Execution analysis: histories, serializability and 1SR checkers."""

from .history import INITIAL_VERSION, History, LogicalOp, PhysicalOp, TxnRecord
from .metrics import convergence_time
from .one_copy import (
    OneCopyResult,
    check_one_copy,
    is_one_copy_serializable,
)
from .serialization import (
    CopyOrder,
    conflict_graph,
    find_cycle,
    is_cp_serializable,
    serial_order,
)

__all__ = [
    "CopyOrder",
    "History",
    "convergence_time",
    "INITIAL_VERSION",
    "LogicalOp",
    "OneCopyResult",
    "PhysicalOp",
    "TxnRecord",
    "check_one_copy",
    "conflict_graph",
    "find_cycle",
    "is_cp_serializable",
    "is_one_copy_serializable",
    "serial_order",
]
