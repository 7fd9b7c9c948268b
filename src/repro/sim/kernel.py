"""The deterministic discrete-event simulation core.

All model time is a float; ties are broken by ``(time,
sequence-number)`` so that two runs with the same seed replay the exact
same interleaving.  There is no wall-clock anywhere in the kernel, which
is what makes adversarially timed failure injection reproducible.

The dispatch loop is the hottest code in the repository — every message
hop, timer, and lock grant passes through it — so the schedule is one
structure of plain tuples:

* an entry is ``(time, key, event)`` or, for a timer nobody yields on
  (a delivery, a deadline, a timer before a send), a *call entry*
  ``(time, key, fn, arg)`` dispatched as ``fn(arg)`` with no event
  behind it.  ``key`` is ``seq << 1 | shape`` (1 = call); sequence
  numbers are unique, so one integer comparison gives exactly the
  ``(time, seq)`` total order and tuple comparison never reaches the
  third field;
* cancelling a timeout sets ``event._cancelled``, cancelling a call
  entry records its key, and the entry stays where it is — dispatch
  skips cancelled entries lazily, and once they pile up past the
  compaction threshold the heap is rebuilt without them (pop order is
  unaffected: it is fixed by the entry tuples, not the heap layout).
  A cancelled event object is never re-armed: its stale entry would
  fire it at the old instant;
* *same-instant* triggers (``succeed``/``fail``: gather wake-ups,
  lock grants, awaited process completions — the majority of all
  entries in a message-passing workload) skip the heap entirely: they
  land on the ``_ready`` FIFO, which is sorted by construction — the
  clock never moves backwards and sequence numbers only grow, so
  appends arrive in ``(time, key)`` order — and the dispatch loop
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
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from .errors import EmptySchedule, ProcessCrashed, StopSimulation
from .events import _PENDING, Event, Timeout
from .process import EventGenerator, Process, start_process

#: default lazy-deletion compaction threshold: rebuild the heap once at
#: least this many cancelled entries linger *and* they outnumber live
#: ones (constructor knob ``compact_min`` overrides per instance)
_COMPACT_MIN = 512

_new = object.__new__


class Simulator:
    """Event queue, clock, and process factory."""

    __slots__ = ("_now", "_queue", "_ready", "_seq",
                 "_active_process", "_pending_crashes", "_cancelled_count",
                 "_cancelled_keys", "_compact_min", "strict", "crashes",
                 "dispatched", "trace_hook")

    def __init__(self, start: float = 0.0, compact_min: int = _COMPACT_MIN):
        if compact_min < 0:
            raise ValueError(f"negative compact_min: {compact_min}")
        self._now = float(start)
        #: the heap: (time, seq<<1, event) and (time, seq<<1|1, fn, arg)
        self._queue: list[tuple] = []
        #: same-instant triggers, sorted by construction
        #: (appends happen in (time, key) order); merged with the heap
        #: at dispatch by comparing heads
        self._ready: deque[tuple[float, int, Event]] = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._pending_crashes: list[ProcessCrashed] = []
        #: cancelled entries still sitting in the heap
        self._cancelled_count = 0
        #: keys of the cancelled call entries among them (a dict: no calls)
        self._cancelled_keys: dict[int, None] = {}
        #: rebuild threshold — 0 compacts as soon as cancelled entries
        #: hold the majority, a huge value never compacts (pure lazy)
        self._compact_min = compact_min
        #: if False, crashed processes are recorded but do not abort run()
        self.strict = True
        self.crashes: list[ProcessCrashed] = []
        #: total events dispatched by this simulator (deterministic for a
        #: seeded run; the numerator of every events/sec measurement)
        self.dispatched = 0
        #: optional dispatch hook ``(time, event) -> None`` for tracing
        #: (a call entry passes its ``fn``); None (the default) costs
        #: one attribute check per step
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
        event._cancelled = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq << 1, event))
        return event

    def call(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> int:
        """Call ``fn(arg)`` ``delay`` from now with no event behind it, in
        ``(time, seq)`` order like any entry; returns its key for :meth:`cancel`."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        key = seq << 1 | 1  # the call shape bit
        heappush(self._queue, (self._now + delay, key, fn, arg))
        return key

    def cancel(self, key: int) -> None:
        """Withdraw the *pending* call entry ``key`` (a fired one's key
        would linger): it never runs and is never counted as dispatched."""
        self._cancelled_keys[key] = None
        count = self._cancelled_count + 1
        self._cancelled_count = count
        if count >= self._compact_min and count * 2 > len(self._queue):
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
        timeouts and call entries are cancelled, and both are heap-only."""
        queue = self._queue
        dead = self._cancelled_keys
        queue[:] = [entry for entry in queue
                    if (entry[1] not in dead if entry[1] & 1
                        else not entry[2]._cancelled)]
        heapify(queue)
        dead.clear()
        self._cancelled_count = 0

    def _report_crash(self, crash: ProcessCrashed) -> None:
        self.crashes.append(crash)
        if self.strict:
            self._pending_crashes.append(crash)

    # -- execution ------------------------------------------------------------

    def _pop_live(self):
        """Pop the next live ``(entry, from_ready)``, merging the heap
        with the ready FIFO and discarding cancelled entries, or
        ``None`` when both are empty.  Callers either dispatch the
        entry or push it back untouched (``peek``)."""
        queue = self._queue
        ready = self._ready
        while True:
            if ready:
                if queue and queue[0] < ready[0]:
                    entry = heappop(queue)
                    from_ready = False
                else:
                    entry = ready.popleft()
                    from_ready = True
            elif queue:
                entry = heappop(queue)
                from_ready = False
            else:
                return None
            key = entry[1]
            if not (key in self._cancelled_keys if key & 1 else entry[2]._cancelled):
                return entry, from_ready
            self._cancelled_keys.pop(key, None)
            self._cancelled_count -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        popped = self._pop_live()
        if popped is None:
            return float("inf")
        entry, from_ready = popped
        if from_ready:
            self._ready.appendleft(entry)
        else:
            heappush(self._queue, entry)
        return entry[0]

    def step(self) -> None:
        """Process exactly one event."""
        if self._pending_crashes:  # a first step crashed outside dispatch
            raise self._pending_crashes.pop(0)
        popped = self._pop_live()
        if popped is None:
            raise EmptySchedule("event queue is empty")
        entry = popped[0]
        self._now = when = entry[0]
        self.dispatched += 1
        event = entry[2]  # or a call entry's fn
        if self.trace_hook is not None:
            self.trace_hook(when, event)
        if entry[1] & 1:
            event(entry[3])
        else:  # run the callbacks, or surface a failure nobody waited for
            if event._value is _PENDING:  # a timeout, due now
                event._ok = True
                event._value = None
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks is not None:
                if callbacks.__class__ is list:
                    for callback in callbacks:
                        callback(event)
                else:
                    callbacks(event)
            elif not event._ok and not getattr(event, "_defused", False):
                value = event._value
                if isinstance(value, BaseException):
                    raise value
                raise RuntimeError(f"unhandled failed event {event!r}: {value!r}")
        if self._pending_crashes:
            raise self._pending_crashes.pop(0)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until a horizon time, an event fires, or the queue empties.

        * ``until`` is a number: stop when the clock would pass it.
        * ``until`` is an :class:`Event`: stop when it fires and return
          its value (a failed event re-raises its exception) — at
          once, dispatching nothing, if it is already processed (a
          process that finished in the call that created it).
        * ``until`` is ``None``: run until no events remain.
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

        # The dispatch loop proper.  Everything reachable per iteration
        # is a local: the heap and the FIFO (compaction mutates both in
        # place, so the aliases stay valid) and the heap primitives.
        # ``dispatched`` accumulates locally and is flushed on every
        # exit path.
        queue = self._queue
        ready = self._ready
        ready_popleft = ready.popleft
        pending_crashes = self._pending_crashes
        dead = self._cancelled_keys
        pop = heappop
        pending = _PENDING
        steps = 0
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
                key = entry[1]
                if key & 1:  # a call entry
                    if key in dead:
                        del dead[key]
                        self._cancelled_count -= 1
                        continue
                elif entry[2]._cancelled:
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
                event = entry[2]  # or a call entry's fn
                trace = self.trace_hook
                if trace is not None:
                    trace(when, event)
                if key & 1:
                    event(entry[3])
                    if pending_crashes:
                        raise pending_crashes.pop(0)
                    continue
                if event._value is pending:  # a timeout, due now
                    event._ok = True
                    event._value = None
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks is not None:
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
                elif not event._ok and not getattr(event, "_defused", False):
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise RuntimeError(
                        f"unhandled failed event {event!r}: {value!r}"
                    )
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

    def _stop_on(self, event: Event) -> None:
        if not event.ok:
            event.defuse()
        raise StopSimulation(event.value)

