"""Restartable timers with the paper's ``set`` / ``reset`` interface.

The protocol pseudocode (Figures 5–8) uses timers of the form::

    var T: Timer;
    T.set(3 * delta);        -- arm (or re-arm) for a duration
    ...
    select from
        receive(...)  -> ... T.reset; ...
        T.timeout     -> ...

:class:`Timer` reproduces those semantics on top of cancellable
:class:`~repro.sim.events.Timeout` events.  ``wait()`` returns an event
that fires at the *current* expiry; re-arming invalidates outstanding
waits (they never fire), exactly like re-setting a hardware timer.
"""

from __future__ import annotations

from typing import Optional

from .events import _PENDING, Event, Timeout


class _TimerGate(Event):
    """The event a :meth:`Timer.wait` hands out.

    Cancelling the gate (e.g. when it loses an ``AnyOf`` race) also
    cancels the underlying :class:`Timeout` so it does not linger in
    the kernel heap.  A dedicated slotted subclass replaces the old
    per-instance ``gate.cancel`` monkeypatch, which ``__slots__`` on
    :class:`Event` no longer permits — and its ``_relay`` bound method
    replaces a per-wait closure.
    """

    __slots__ = ("_timeout", "_timer", "_generation")

    def __init__(self, sim, timer: "Timer", timeout: Timeout,
                 name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._processed = False
        self._cancelled = False
        self._timeout = timeout
        self._timer = timer
        self._generation = timer._generation

    def _relay(self, _event) -> None:
        # Fires only if the arming that created this wait is still the
        # current one — re-arming invalidates outstanding waits.
        if (self._timer._generation == self._generation
                and self._value is _PENDING):
            self.succeed(self._timer)

    def cancel(self) -> None:
        # Inlined Timeout.cancel: gates are cancelled on every lost
        # select race, i.e. on nearly every receive-loop iteration.
        timeout = self._timeout
        if not (timeout._processed or timeout._cancelled):
            timeout.callbacks = None
            timeout._cancelled = True
            sim = timeout.sim
            count = sim._cancelled_count + 1
            sim._cancelled_count = count
            if count >= sim._compact_min and count * 2 > len(sim._queue):
                sim._compact()
        if self._value is _PENDING:
            self.callbacks = None
            # A cancelled gate lost its race and nobody can hear it
            # any more: hand it back to the timer for the next wait().
            self._timer._spare_gate = self


class Timer:
    """A one-shot, re-armable countdown."""

    __slots__ = ("sim", "name", "_generation", "_pending", "_expiry",
                 "_spare_gate", "_never_name", "_timeout_name", "_gate_name")

    def __init__(self, sim, name: str = "timer"):
        self.sim = sim
        self.name = name
        self._generation = 0
        self._pending: Optional[Timeout] = None
        self._expiry: Optional[float] = None
        #: the gate handed out by a wait() that lost its race, recycled
        #: by the next wait() — timers lose on nearly every receive-loop
        #: iteration.  Safe because the gate was cancelled, so its
        #: holder (the losing AnyOf) is done with it, and a gate is
        #: never scheduled while pending.  The Timeout is NOT recycled:
        #: its cancelled entry is still in the heap and would fire a
        #: re-armed object at the old instant.
        self._spare_gate: Optional[_TimerGate] = None
        # precomputed once per timer — wait() runs on every receive
        # loop iteration, so no per-wait string formatting
        self._never_name = f"{name}.never"
        self._timeout_name = f"{name}.timeout"
        self._gate_name = f"{name}.gate"

    @property
    def armed(self) -> bool:
        """True while a countdown is in progress."""
        return (self._expiry is not None
                and self._expiry > self.sim.now)

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` when disarmed."""
        return self._expiry if self.armed else None

    def set(self, duration: float) -> None:
        """Arm (or re-arm) the timer to fire ``duration`` from now."""
        if duration < 0:
            raise ValueError(f"negative timer duration {duration}")
        # Inlined _invalidate: set() runs once per receive-loop
        # iteration, and in the common case the pending Timeout was
        # already cancelled when its gate lost the select race — skip
        # the cancel() call entirely then.
        self._generation += 1
        pending = self._pending
        if pending is not None:
            if not (pending._processed or pending._cancelled):
                pending.cancel()
            self._pending = None
        self._expiry = self.sim._now + duration

    def reset(self) -> None:
        """Disarm the timer; outstanding waits never fire."""
        self._invalidate()
        self._expiry = None

    def wait(self) -> Event:
        """An event that fires when the *current* arming expires.

        Waiting on a disarmed timer returns an event that never fires
        (callers combine it with other sources via ``AnyOf``).
        """
        sim = self.sim
        expiry = self._expiry
        if expiry is None or expiry <= sim._now:
            return Event(sim, self._never_name)
        timeout = sim.timeout(expiry - sim._now, name=self._timeout_name)
        self._pending = timeout
        gate = self._spare_gate
        if gate is not None and gate._value is _PENDING:
            self._spare_gate = None
            gate._timeout = timeout
            gate._generation = self._generation
        else:
            gate = _TimerGate(sim, self, timeout, name=self._gate_name)
        timeout.callbacks = gate._relay
        return gate

    def _invalidate(self) -> None:
        self._generation += 1
        pending = self._pending
        if pending is not None:
            if not pending._processed:
                pending.cancel()
            self._pending = None
