"""The deterministic discrete-event simulation core.

All model time is a float; ties are broken by ``(time,
sequence-number)`` so that two runs with the same seed replay the exact
same interleaving.  There is no wall-clock anywhere in the kernel, which
is what makes adversarially timed failure injection reproducible.

The dispatch loop is the hottest code in the repository — every message
hop, timer, and lock grant passes through it — so the schedule is one
structure of plain tuples in one shape:

* every entry is a *call entry* ``(time, seq, fn, arg)``, dispatched
  as ``fn(arg)``.  A timer nobody yields on (a delivery, a deadline, a
  timer before a send) is :meth:`Simulator.call`'s ``fn`` with no event
  behind it; a triggered event or a timeout is ``(time, seq,
  _dispatch, event)``, and :func:`~repro.sim.events._dispatch` is the
  one body that processes an event.  Sequence numbers are unique, so
  tuple comparison gives exactly the ``(time, seq)`` total order and
  never reaches the third field;
* an entry's key is its ``seq``, and cancelling one — a call entry by
  :meth:`Simulator.cancel`, a timeout by :meth:`Timeout.cancel
  <repro.sim.events.Timeout.cancel>`, which calls it — records the key
  in ``_cancelled_keys``; the entry stays where it is.  Dispatch skips
  a cancelled key lazily, and once they pile up past the compaction
  threshold the heap is rebuilt without them (pop order is
  unaffected: it is fixed by the entry tuples, not the heap layout);
* *same-instant* triggers (``succeed``/``fail``: gather wake-ups,
  lock grants, awaited process completions — the majority of all
  entries in a message-passing workload) skip the heap entirely: they
  land on the ``_ready`` FIFO, which is sorted by construction — the
  clock never moves backwards and sequence numbers only grow, so
  appends arrive in ``(time, seq)`` order — and the dispatch loop
  merges the FIFO with the heap by comparing their heads.  An O(1)
  append/popleft replaces an O(log n) sift for roughly half of all
  scheduling traffic.

Nothing is scheduled that nobody awaits, and nothing is scheduled to
*start*: a process runs its first step in the call that creates it,
one that finishes with no waiter is marked processed on the spot, and
the one timed wait (:meth:`Simulator.wait`) resumes its caller in the
dispatch of the event it guards — no composite event sits between them.

Events themselves are small slotted objects (see
:mod:`repro.sim.events`): no per-event name formatting, no
callback-list allocation until a second callback actually arrives.
None of this changes observable semantics: dispatch order is the total
order ``(time, seq)``.

A run creates no reference cycles, so :meth:`Simulator.run` pauses
Python's cyclic collector for its dispatch loop — left on, it traces
the run's young objects hundreds of times and frees nothing.  It pauses
only a collector that was enabled on entry, and every exit path runs
one young-generation pass (``gc.collect(0)``) before enabling it again,
so the run, not its caller's next allocation, pays for what it
allocated.  ``tests/sim/test_collector.py`` pins the contract: code
that builds a cycle per message breaks it there.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from .errors import EmptySchedule, ProcessCrashed, StopSimulation
from .events import _PENDING, Event, Timeout, _dispatch
from .process import EventGenerator, Process, start_process

#: lazy-deletion compaction threshold: rebuild the heap once at least
#: this many cancelled entries linger *and* they outnumber live ones
_COMPACT_MIN = 512

_new = object.__new__


class Simulator:
    """Event queue, clock, and process factory."""

    __slots__ = ("_now", "_queue", "_ready", "_seq",
                 "_active_process", "_pending_crashes", "_cancelled_count",
                 "_cancelled_keys", "dispatched", "trace_hook")

    def __init__(self):
        self._now = 0.0
        #: the heap of (time, seq, fn, arg) entries
        self._queue: list[tuple] = []
        #: same-instant triggers, sorted by construction
        #: (appends happen in (time, seq) order); merged with the heap
        #: at dispatch by comparing heads
        self._ready: deque[tuple] = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: crashed processes not yet reported: run() raises them
        self._pending_crashes: list[ProcessCrashed] = []
        #: cancelled entries still sitting in the heap
        self._cancelled_count = 0
        #: their keys (a dict: no calls)
        self._cancelled_keys: dict[int, None] = {}
        #: total events dispatched by this simulator (deterministic for a
        #: seeded run; the numerator of every events/sec measurement)
        self.dispatched = 0
        #: optional dispatch hook ``(time, target) -> None`` for tracing
        #: (the event of an event's entry, else the call entry's ``fn``);
        #: None (the default) costs one attribute check per step
        self.trace_hook: Optional[Any] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current model time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose step is running — its first, inside the
        call that creates it, included — if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh untriggered one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, name: str = "") -> Timeout:
        """An event firing (with ``None``) ``delay`` units from now, for a
        process to yield (else use :meth:`call`); builds every Timeout."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = _new(Timeout)
        event.sim = self
        event.name = name
        event.callbacks = None
        event._value = _PENDING
        event._processed = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        event._key = seq
        heappush(self._queue, (self._now + delay, seq, _dispatch, event))
        return event

    def call(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> int:
        """Call ``fn(arg)`` ``delay`` from now with no event behind it, in
        ``(time, seq)`` order like any entry; returns its key for :meth:`cancel`."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, fn, arg))
        return seq

    def cancel(self, key: int) -> None:
        """Withdraw the *pending* entry ``key`` (a fired one's key would
        linger): it never runs and is never counted as dispatched."""
        self._cancelled_keys[key] = None
        count = self._cancelled_count + 1
        self._cancelled_count = count
        if count >= _COMPACT_MIN and count * 2 > len(self._queue):
            self._compact()

    def process(self, generator: EventGenerator, name: str = "") -> Process:
        """Start a new process: ``generator``'s first step runs in
        this call (see :func:`~repro.sim.process.start_process`)."""
        return start_process(self, generator, name)

    def wait(self, event: Event, delay: float, expired: Any = None):
        """Generator: the one timed wait — ``event`` under a deadline.

        Use as ``value = yield from sim.wait(event, delay, expired)``.
        The process yields ``event`` itself, so whatever triggers it
        resumes the process in that one dispatch.  The deadline is one
        :meth:`call` entry: if ``event`` is still untriggered when it is
        dispatched, it :meth:`~Event.cancel`-s the event (a lock
        request leaves its queue, a reply waiter its table) and
        triggers it with ``expired``.  The tie rule: *an event already
        triggered when its deadline is dispatched wins*.  A deadline
        still pending is cancelled on resume and when the waiter is
        killed, so neither leaves a live schedule entry behind.
        """
        def expire(_arg) -> None:
            nonlocal deadline
            deadline = None
            if event._value is _PENDING:
                event.cancel()
                event.succeed(expired)

        deadline = self.call(delay, expire)
        try:
            return (yield event)
        finally:
            if deadline is not None:
                self.cancel(deadline)

    # -- scheduling ------------------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.  In-place
        (``queue[:] = ...``) so the dispatch loop's local alias stays
        valid; pop order is unaffected — it is fixed by the entry
        tuples, not the heap layout.  The ready FIFO holds none: only
        heap entries are ever cancelled."""
        queue = self._queue
        dead = self._cancelled_keys
        queue[:] = [entry for entry in queue if entry[1] not in dead]
        heapify(queue)
        dead.clear()
        self._cancelled_count = 0

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until a horizon time, an event fires, or the queue empties.

        * ``until`` is a number: stop when the clock would pass it.
        * ``until`` is an :class:`Event`: stop when it fires and return
          its value (a failed event re-raises its exception) — at
          once, dispatching nothing, if it is already processed (a
          process that finished in the call that created it).
        * ``until`` is ``None``: run until no events remain.

        A process that crashed — in this run or in a first step before
        it — aborts the run with its :class:`ProcessCrashed`.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.add_callback(self._stop_on)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"horizon {horizon} is in the past (now={self._now})"
                )

        # The one dispatch loop.  Everything reachable per iteration
        # is a local: the heap and the FIFO (compaction mutates both in
        # place, so the aliases stay valid) and the heap primitives.
        # ``dispatched`` accumulates locally and is flushed on every
        # exit path, which also detaches the stop callback and hands
        # back the cyclic collector (see the module docstring).
        queue = self._queue
        ready = self._ready
        ready_popleft = ready.popleft
        pending_crashes = self._pending_crashes
        dead = self._cancelled_keys
        pop = heappop
        steps = 0
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            if pending_crashes:  # a first step crashed outside dispatch
                raise pending_crashes.pop(0)
            while True:
                # Merge the ready FIFO with the heap: both are sorted,
                # so the smaller head is the global minimum.
                if ready:
                    if queue and queue[0] < ready[0]:
                        entry = pop(queue)
                    else:
                        entry = ready_popleft()
                elif queue:
                    entry = pop(queue)
                else:
                    break
                if entry[1] in dead:
                    del dead[entry[1]]
                    self._cancelled_count -= 1
                    continue
                when = entry[0]
                if when > horizon:
                    # Not due yet: put it back for the next run() call.
                    # Only heap entries can overshoot — FIFO entries
                    # fire at or before `now`, which never exceeds the
                    # horizon.
                    heappush(queue, entry)
                    self._now = horizon
                    return None
                self._now = when
                steps += 1
                fn = entry[2]
                trace = self.trace_hook
                if trace is not None:
                    trace(when, entry[3] if fn is _dispatch else fn)
                fn(entry[3])
                if pending_crashes:
                    raise pending_crashes.pop(0)
            # Queue empty.
            if stop_event is not None:
                raise EmptySchedule(
                    f"queue empty before {stop_event!r} fired"
                )
            if horizon != float("inf"):
                # Advance to the horizon even with nothing left to do,
                # so callers composing successive run(until=t) calls
                # never act "in the past".
                self._now = horizon
            return None
        except StopSimulation as stop:
            if (stop_event is not None and stop_event.triggered
                    and not stop_event.ok):
                raise stop_event.value from None
            return stop.value
        finally:
            self.dispatched += steps
            if stop_event is not None and not stop_event._processed:
                self._detach_stop(stop_event)
            if collecting:
                gc.collect(0)
                gc.enable()

    def _detach_stop(self, event: Event) -> None:
        """Take this run's stop callback off an event that did not
        fire, so a later run does not stop on it."""
        stop = self._stop_on
        callbacks = event.callbacks
        if callbacks == stop:
            event.callbacks = None
        elif callbacks.__class__ is list and stop in callbacks:
            callbacks.remove(stop)

    def _stop_on(self, event: Event) -> None:
        if not event.ok:
            event.defuse()
        raise StopSimulation(event.value)
