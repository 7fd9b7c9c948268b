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

The start rule (:func:`start_process`): *creating a process drives its
generator to its first ``yield`` in the creating call.*  Nothing is
scheduled to start it; what the first step triggers (a message, a lock
grant) is still only *scheduled*, behind every entry already queued at
that instant.  Nor does a process nobody waits on schedule anything
when it finishes: it is marked processed on the spot, so waiting on it
*afterwards* crashes the waiter loudly, like any other processed event.

A process is resumed by its target's one schedule entry, ``(time, seq,
_dispatch, event)`` (see :mod:`repro.sim.kernel`); killing it cancels
that target, and a timeout's cancel is its key's, like any call
entry's.  A crash is never swallowed: the next :meth:`Simulator.run
<repro.sim.kernel.Simulator.run>` step raises its
:class:`~repro.sim.errors.ProcessCrashed`.

The one sanctioned exception, a body that opens with ``yield
sim.timeout(0)`` to look only after this instant's other entries, is
:meth:`repro.commit.base.AtomicCommit._resolver`; the reason is there.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from .errors import ProcessCrashed, StopSimulation
from .events import _PENDING, Event

EventGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A started generator, resumed through the event loop (built by
    :func:`start_process`, which runs its first step)."""

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, sim, generator: EventGenerator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._generator = generator
        # bound methods cached once: _resume runs per dispatch
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None

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
            self._crash(exc)
            return
        finally:
            sim._active_process = None
        self._park(next_target)

    def _crash(self, exc: BaseException, unparkable: bool = False) -> None:
        """The generator died of ``exc``: report it and fail the event
        with it — with the report itself for a yield ``_park`` refused."""
        self._target = None
        crash = ProcessCrashed(self, exc)
        self.sim._pending_crashes.append(crash)
        self.fail(crash if unparkable else exc)

    def _park(self, target: Any) -> None:
        """Wait on what the generator just yielded."""
        if target.__class__ is not Event and not isinstance(target, Event):
            self._crash(TypeError(f"process yielded non-event {target!r}"),
                        unparkable=True)
            return
        if target._processed:
            self._crash(RuntimeError(f"{target!r} already processed"),
                        unparkable=True)
            return
        self._target = target
        cbs = target.callbacks
        if cbs is None:
            target.callbacks = self._resume
        elif cbs.__class__ is list:
            cbs.append(self._resume)
        else:
            target.callbacks = [cbs, self._resume]


def start_process(sim, generator: EventGenerator, name: str = "",
                  one_shot: bool = False) -> Optional[Process]:
    """The start rule: run ``generator``'s first step *now*, as
    ``sim.active_process`` (restored afterwards: a nested start leaves
    the outer process active), and return the :class:`Process` it is —
    parked on the first target it yielded; crashed, reported like a
    crash in any later step; or finished, a processed event carrying
    its value.  No kernel event is spent.  A ``one_shot`` body, whose
    creator keeps no handle, becomes a ``Process`` only once it waits
    or crashes (``None`` is returned if it just finishes), so its first
    step cannot name itself: ``active_process`` is ``None`` there.
    """
    if generator.__class__ is not GeneratorType and not (
            hasattr(generator, "send") and hasattr(generator, "throw")):
        raise TypeError(f"{generator!r} is not a generator")
    process = None if one_shot else Process(sim, generator, name)
    outer = sim._active_process
    sim._active_process = process
    try:
        target = generator.send(None)
    except StopIteration as stop:
        if process is not None:
            process._value = stop.value
            process._processed = True
        return process
    except StopSimulation:
        raise
    except BaseException as exc:  # noqa: BLE001 - surfaced via kernel
        if process is None:
            process = Process(sim, generator, name)
        process._crash(exc)
        return process
    finally:
        sim._active_process = outer
    if process is None:
        process = Process(sim, generator, name)
    process._park(target)
    return process
