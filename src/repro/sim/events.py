"""One-shot events: the unit of synchronization in the kernel.

An :class:`Event` moves through three states:

* *pending* — created, not yet triggered;
* *triggered* — a value (or exception) has been set and the event is
  scheduled for processing;
* *processed* — its callbacks have run.

Processes wait on events by ``yield``-ing them (see
:mod:`repro.sim.process`); a wait under a deadline is
:meth:`Simulator.wait <repro.sim.kernel.Simulator.wait>`, which yields
the event itself and, at expiry, :meth:`~Event.cancel`-s it — the event
leaves whatever would have triggered it (a lock queue, a reply table) —
and triggers it with the caller's *expired* value.

Events are allocated on every message hop, timer, and lock wait, so
they are deliberately small slotted objects:

* ``callbacks`` is polymorphic — ``None`` (none yet), a bare callable
  (the overwhelmingly common single-waiter case), or a list.  Most
  events never allocate a callback list at all.
* triggering puts one ``(time, key, event)`` entry on the kernel's
  schedule; cancelling a timeout sets ``_cancelled`` and the kernel
  drops the entry when it reaches it — nothing searches the heap.
* names default to ``""`` and are only formatted on demand (``repr``);
  the hot paths never build f-strings.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

# Schedule entries are ``(time, seq << 1 | kind, event)``.  The kind
# bit (1 = delayed-value timeout) never affects ordering because
# sequence numbers are unique, so one integer comparison orders
# same-instant entries by sequence number.

_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok",
                 "_processed", "_defused", "_cancelled")

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        #: None | callable | list of callables (in attach order)
        self.callbacks: Any = None
        self._value: Any = _PENDING
        #: set by the kernel once callbacks have been executed
        self._processed = False
        #: True once withdrawn while scheduled; the kernel skips it
        self._cancelled = False
        # ``_ok`` and ``_defused`` are deliberately NOT initialized:
        # every trigger path (succeed/fail/materialize)
        # stores ``_ok`` before anything reads it, and ``_defused`` is
        # stored by defuse() and read (via getattr) only on the
        # unhandled-failure path.  Two fewer stores per event matters:
        # events are allocated on every message hop.

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or an exception has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception (once triggered)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        # same-instant triggers keep FIFO order — they skip the heap
        sim._ready.append((sim._now, seq << 1, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        sim._ready.append((sim._now, seq << 1, self))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._defused = True

    # -- cancellation ----------------------------------------------------

    def cancel(self) -> None:
        """Withdraw a pending event from whatever would trigger it.

        A plain event is triggered by whoever holds a reference, so
        there is nothing to leave; subclasses parked somewhere (a lock
        queue, the schedule, a reply table) override this to get out.
        Callbacks stay: the canceller may still trigger the event
        itself, as an expired :meth:`Simulator.wait` does.
        """

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event is processed.

        A triggered-but-unprocessed event still accepts callbacks: the
        kernel picks them up when it pops the event.
        """
        if self._processed:
            raise RuntimeError(f"{self!r} already processed")
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = callback
        elif cbs.__class__ is list:
            cbs.append(callback)
        else:
            self.callbacks = [cbs, callback]

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    The value is held aside and only materialized when the kernel pops
    the event (heap entries carry the DELAYED kind tag), so
    ``triggered`` stays false until the timeout actually occurs in
    model time.
    """

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._processed = False
        self._cancelled = False
        self.delay = delay
        self._delayed_value = value
        seq = sim._seq
        sim._seq = seq + 1
        # the trailing 1 is the DELAYED kind tag
        heappush(sim._queue, (sim._now + delay, (seq << 1) | 1, self))

    def cancel(self) -> None:
        # Lazy deletion: the kernel discards the heap entry when it is
        # popped; compact once dead entries dominate.
        if self._processed or self._cancelled:
            return
        self.callbacks = None
        self._cancelled = True
        sim = self.sim
        count = sim._cancelled_count + 1
        sim._cancelled_count = count
        if count >= sim._compact_min and count * 2 > len(sim._queue):
            sim._compact()

    def __repr__(self) -> str:
        label = self.name or f"timeout({self.delay})"
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"
