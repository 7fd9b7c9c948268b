"""Generator-based simulated processes.

A process is a Python generator that ``yield``-s :class:`Event` objects;
the kernel resumes it with the event's value (or throws the event's
exception).  A :class:`Process` is itself an event and fires when the
generator returns — its value is the generator's return value — so
processes can wait on each other.

This mirrors the task structure of the paper's pseudocode (Figures
3–12): each ``task ... cycle ... endcycle`` becomes a generator loop and
a ``receive ... [no-response: ...]`` becomes ``yield from
sim.wait(event, delay)``.  (A ``select`` whose branches never wait —
Fig. 6 — needs no process at all: see :mod:`repro.core.vp_monitor`.)

A process nobody waits on schedules nothing when it finishes: it is
marked processed on the spot, so waiting on it *afterwards* crashes the
waiter loudly, exactly like any other processed event.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .errors import ProcessCrashed, StopSimulation
from .events import _PENDING, Event

EventGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, sim, generator: EventGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._generator = generator
        # bound methods cached once: _resume runs per dispatch
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        # Kick the process off at the current instant, behind whatever
        # is already scheduled there: a freshly spawned process never
        # preempts event deliveries due at this instant.
        init = Event(sim)
        init.succeed()
        init.callbacks = self._resume
        self._target = init

    # -- inspection --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    # -- control -----------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process immediately without running it further.

        Used to model processor crashes: the victim gets no chance to
        clean up, exactly like a real crash.  The process event itself is
        *not* triggered with a value — anyone waiting on it keeps waiting
        (their wait should be guarded by a timeout, as in the paper).
        """
        if not self.is_alive:
            return
        if self._target is not None and not self._target.triggered:
            self._target.cancel()
        self._target = None
        self._generator.close()
        # Mark dead without scheduling: waiters time out instead.
        self._value = None
        self._ok = True
        self._processed = True
        self.callbacks = None

    # -- kernel callback -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # Killed (or finished) between scheduling and delivery.
            return
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_target = self._send(event._value)
            else:
                event._defused = True
                next_target = self._throw(event._value)
        except StopIteration as stop:
            self._target = None
            if self.callbacks is None:
                # nobody awaits the result: nothing to dispatch
                self._value = stop.value
                self._processed = True
            else:
                self.succeed(stop.value)
            return
        except StopSimulation:
            # Deliberate halt requests pass straight through to run().
            self._target = None
            raise
        except BaseException as exc:  # noqa: BLE001 - surfaced via kernel
            self._target = None
            sim._report_crash(ProcessCrashed(self, exc))
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        if next_target.__class__ is not Event and \
                not isinstance(next_target, Event):
            crash = ProcessCrashed(
                self, TypeError(f"process yielded non-event {next_target!r}")
            )
            sim._report_crash(crash)
            self.fail(crash)
            return
        if next_target._processed:
            crash = ProcessCrashed(
                self, RuntimeError(f"{next_target!r} already processed")
            )
            sim._report_crash(crash)
            self.fail(crash)
            return
        self._target = next_target
        cbs = next_target.callbacks
        if cbs is None:
            next_target.callbacks = self._resume
        elif cbs.__class__ is list:
            cbs.append(self._resume)
        else:
            next_target.callbacks = [cbs, self._resume]
