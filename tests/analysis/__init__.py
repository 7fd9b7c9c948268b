"""Tests of the correctness checkers and the history they judge."""

from repro.analysis.history import LogicalAccess, LogicalOp


def record_logical(history, **fields) -> None:
    """Report the access ``LogicalOp(**fields)`` to ``history`` the way
    a baseline does: from pid 1, in no partition, on no placement epoch."""
    history.record(LogicalAccess(LogicalOp(**fields), 1, None, (), 0))
