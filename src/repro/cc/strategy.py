"""The concurrency control strategy interface (assumption A1).

The paper requires only that the concurrency control protocol be
CP-serializable and lists two-phase locking [EGLT] and timestamp
ordering [BSR] as members of that class.  Both are implemented behind
this interface so the replica control layer — the paper's contribution
— is strictly independent of the CC choice, and the ablation bench can
swap them under identical workloads.
"""

from __future__ import annotations

#: admission results
GRANTED = "granted"
REJECTED_TIMEOUT = "cc-timeout"
REJECTED_TOO_LATE = "cc-too-late"


class ConcurrencyControl:
    """Per-processor admission control over local physical copies.

    A strategy answers, per physical access at one copy server, *may this
    transaction read/write this copy now?* — the generators
    ``begin_read``/``begin_write(txn, ts, obj)`` → ``(granted, reason)``
    may wait — and ``finish(txn, outcome)`` releases its admissions;
    ``active_txns()`` are the R4 targets.  A recovery read asks
    ``stable_read_now(obj)`` (True grants, False changes nothing), else
    waits in the generator ``stable_read_gate(obj)`` → bool until it
    cannot observe an uncommitted write (weakened R4's condition (3)).
    """

    name: str = "abstract"
