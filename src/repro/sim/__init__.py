"""Deterministic discrete-event simulation kernel.

The substrate on which the whole reproduction runs: a seeded,
wall-clock-free event loop with generator-based processes, cancellable
composite waits, cancellable timeouts, and FIFO mailboxes.
"""

from .errors import (
    EmptySchedule,
    Interrupt,
    ProcessCrashed,
    SimulationError,
    StopSimulation,
)
from .events import NORMAL, URGENT, AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .kernel import Simulator
from .process import Process
from .queues import GetEvent, MessageQueue
from .rng import RandomStreams
from .sync import Notifier

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Event",
    "GetEvent",
    "Interrupt",
    "MessageQueue",
    "NORMAL",
    "Notifier",
    "Process",
    "ProcessCrashed",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "URGENT",
]
