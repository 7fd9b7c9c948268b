"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early.

    User code may raise it from inside a process to stop the whole
    simulation at the current instant.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EmptySchedule(SimulationError):
    """The event queue ran dry before the requested horizon."""


class ProcessCrashed(SimulationError):
    """A process terminated with an unhandled exception.

    Wraps the original exception so the simulation loop can surface the
    failure at the ``run()`` call site instead of losing it.
    """

    def __init__(self, process, original: BaseException):
        super().__init__(f"process {process!r} crashed: {original!r}")
        self.process = process
        self.original = original
