"""Strict timestamp ordering as a concurrency control strategy [BSR].

Transactions carry a globally unique timestamp ``(begin_time, pid,
seq)``.  Each copy remembers the largest timestamp that read it
(``rts``), the largest that wrote it (``wts``), and the uncommitted
writer if any.  Admission rules (strict TSO, no Thomas write rule —
skipping writes would corrupt the replica dates):

* read at ``ts``: rejected if ``ts < wts`` (the value it should have
  read is already overwritten); if the current write is uncommitted,
  wait for the writer's fate first (no dirty reads);
* write at ``ts``: rejected if ``ts < rts`` or ``ts < wts``; waits for
  an uncommitted earlier writer, then installs itself as the
  uncommitted writer.

Rejections abort the transaction (it retries with a fresh, larger
timestamp).  Waiting is only ever for *older* uncommitted writers, so
wait-for chains strictly decrease in timestamp and deadlock is
impossible — the timeout exists purely as a liveness backstop against
decision messages lost to network failures.

All admission state is volatile (a crash clears it); safety across
crashes is provided by the replica control layer — a recovering
processor joins a fresh partition and stale-partition operations are
rejected by the ``v = cur-id`` check before reaching the CC layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..sim import Notifier, Simulator
from .strategy import (
    ConcurrencyControl,
    REJECTED_TIMEOUT,
    REJECTED_TOO_LATE,
)


@dataclass
class _CopyMarks:
    rts: Any = None
    wts: Any = None
    uncommitted: Optional[tuple] = None  # (txn, ts)


def _later(a, b) -> bool:
    """ts ``a`` strictly later than ``b`` (None = minus infinity)."""
    if b is None:
        return True
    if a is None:
        return False
    return a > b


class TimestampOrdering(ConcurrencyControl):
    """Strict TSO over local copies."""

    name = "tso"

    def __init__(self, sim: Simulator, wait_timeout: float,
                 label: str = "tso"):
        self.sim = sim
        self.wait_timeout = wait_timeout
        self._marks: Dict[str, _CopyMarks] = {}
        self._changed = Notifier(sim, name=f"{label}.decisions")
        #: admissions per transaction, for finish/active_txns
        self._by_txn: Dict[Any, Set[str]] = {}

    # -- admission ------------------------------------------------------------

    def begin_read(self, txn: Any, ts: Any, obj: str):
        settled = yield from self._await(
            lambda: self._no_older_uncommitted(txn, ts, obj))
        if not settled:
            return (False, REJECTED_TIMEOUT)
        marks = self._marks.setdefault(obj, _CopyMarks())
        if _later(marks.wts, ts) and not self._own(marks, txn):
            return (False, REJECTED_TOO_LATE)
        if _later(ts, marks.rts):
            marks.rts = ts
        self._by_txn.setdefault(txn, set()).add(obj)
        return (True, None)

    def begin_write(self, txn: Any, ts: Any, obj: str):
        settled = yield from self._await(
            lambda: self._no_older_uncommitted(txn, ts, obj))
        if not settled:
            return (False, REJECTED_TIMEOUT)
        marks = self._marks.setdefault(obj, _CopyMarks())
        if self._own(marks, txn):
            # re-writing our own uncommitted value is always fine
            return (True, None)
        if _later(marks.rts, ts) or _later(marks.wts, ts):
            return (False, REJECTED_TOO_LATE)
        marks.wts = ts
        marks.uncommitted = (txn, ts)
        self._by_txn.setdefault(txn, set()).add(obj)
        return (True, None)

    def _await(self, settled):
        """Generator → bool: wait, up to the timeout, until ``settled()``
        holds; it is re-checked at every decision."""
        deadline = self.sim.now + self.wait_timeout
        while not settled():
            if self.sim.now >= deadline:
                return False
            yield from self.sim.wait(self._changed.wait(),
                                     deadline - self.sim.now)
        return True

    def _no_older_uncommitted(self, txn: Any, ts: Any, obj: str) -> bool:
        """Strictness: no uncommitted older writer.  A NEWER one makes us
        too late either way: the rts/wts check rejects us."""
        holder = self._marks.setdefault(obj, _CopyMarks()).uncommitted
        return holder is None or holder[0] == txn or _later(holder[1], ts)

    @staticmethod
    def _own(marks: _CopyMarks, txn: Any) -> bool:
        return marks.uncommitted is not None and marks.uncommitted[0] == txn

    # -- lifecycle ------------------------------------------------------------

    def finish(self, txn: Any, outcome: str) -> None:
        for obj in self._by_txn.pop(txn, set()):
            marks = self._marks.get(obj)
            if marks is None:
                continue
            if marks.uncommitted is not None and marks.uncommitted[0] == txn:
                marks.uncommitted = None
                # An aborted write's value is rolled back by the server's
                # before-image; wts stays conservatively high, which can
                # only cause extra (safe) rejections.
        self._changed.notify_all()

    def active_txns(self) -> Set[Any]:
        return set(self._by_txn)

    def stable_read_gate(self, obj: str):
        """Wait until no uncommitted write marks the copy."""
        return (yield from self._await(lambda: self.stable_read_now(obj)))

    def stable_read_now(self, obj: str) -> bool:
        marks = self._marks.get(obj)
        return marks is None or marks.uncommitted is None
