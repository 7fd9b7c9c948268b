"""Reading a simulator's schedule from tests (importable from ``tests/``
only).  An entry is ``(time, key, event)`` or, with the low bit of
``key`` set, a call entry ``(time, key, fn, arg)``; a cancelled entry
stays queued until the kernel reaches it or compacts it away."""


def is_call(entry) -> bool:
    return bool(entry[1] & 1)


def is_cancelled(sim, entry) -> bool:
    if is_call(entry):
        return entry[1] in sim._cancelled_keys
    return entry[2]._cancelled


def live_entries(sim):
    """The queued entries that will still dispatch, heap and FIFO."""
    return [entry for entry in (*sim._queue, *sim._ready)
            if not is_cancelled(sim, entry)]


def cancelled_entries(sim) -> int:
    """How many queued entries are cancelled: what ``_cancelled_count``
    must equal at every moment."""
    return sum(1 for entry in (*sim._queue, *sim._ready)
               if is_cancelled(sim, entry))
