"""Condition-style synchronization: re-armable wait/notify.

Used to implement the paper's ``wait until (l not in locked)`` (Fig. 12)
without busy waiting: waiters park on a :class:`Notifier` and are all
released whenever the guarded state changes, then re-check their
predicate in their own loop, tested before any wait is built:
``while obj in state.locked: yield state.locked_changed.wait()``.
"""

from __future__ import annotations

from .events import Event


class Notifier:
    """A broadcast point: many waiters, released together on notify."""

    __slots__ = ("sim", "name", "_waiters", "_wait_name")

    def __init__(self, sim, name: str = "notifier"):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []
        # precomputed once — waits recur on every lock-contention loop
        self._wait_name = f"{name}.wait"

    def wait(self) -> Event:
        """An event that fires at the next :meth:`notify_all`."""
        event = Event(self.sim, self._wait_name)
        self._waiters.append(event)
        return event

    def notify_all(self) -> None:
        """Release every current waiter (new waits queue afresh)."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    @property
    def waiting(self) -> int:
        """Number of parked waiters (for tests and metrics)."""
        return len(self._waiters)
