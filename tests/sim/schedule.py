"""Reading a simulator's schedule from tests (importable from ``tests/``
only) — the one place tests know the entry layout.  Every entry, on
the heap and on the ready FIFO alike, is ``(time, seq, fn, arg)``; a
triggered event or a timeout is ``(time, seq, _dispatch, event)``.  A
cancelled entry stays queued, its ``seq`` in ``sim._cancelled_keys``,
until the kernel reaches it or compacts it away."""

from repro.sim.events import _dispatch


def is_cancelled(sim, entry) -> bool:
    return entry[1] in sim._cancelled_keys


def target(entry):
    """The event an event's entry processes, else the call's ``fn`` —
    what ``trace_hook`` is given."""
    return entry[3] if entry[2] is _dispatch else entry[2]


def live_entries(sim):
    """The queued entries that will still dispatch, heap and FIFO."""
    return [entry for entry in (*sim._queue, *sim._ready)
            if not is_cancelled(sim, entry)]


def cancelled_entries(sim) -> int:
    """How many queued entries are cancelled: what ``_cancelled_count``
    must equal at every moment."""
    return sum(1 for entry in (*sim._queue, *sim._ready)
               if is_cancelled(sim, entry))


def ready_events(sim):
    """The triggered events on the ready FIFO, in dispatch order."""
    return [entry[3] for entry in sim._ready]
