"""Deterministic discrete-event simulation kernel.

The substrate on which the whole reproduction runs: a seeded,
wall-clock-free event loop with generator-based processes, cancellable
timeouts, and one timed wait (:meth:`Simulator.wait`).
"""

from .errors import (
    EmptySchedule,
    ProcessCrashed,
    SimulationError,
    StopSimulation,
)
from .events import Event, Timeout
from .kernel import Simulator
from .process import Process, start_process
from .rng import RandomStreams
from .sync import Notifier

__all__ = [
    "EmptySchedule",
    "Event",
    "Notifier",
    "Process",
    "ProcessCrashed",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "start_process",
]
