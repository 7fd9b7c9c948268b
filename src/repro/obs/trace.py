"""The trace recorder.

Design constraints, in priority order:

1. **Zero overhead when off.**  Instrumented classes default their
   ``tracer`` attribute to ``None`` and guard every emission with
   ``if self.tracer is not None`` — when tracing is disabled the hot
   paths pay one attribute load per site, nothing more.  There is no
   always-on no-op object on the message path.  Joins, departs and
   reshard steps are not emitted where they happen at all: protocol
   code reports them to ``History``, which hands them to :meth:`read`.
2. **Determinism.**  A tracer only ever records simulated time and
   values normalized by :func:`~repro.obs.events.jsonable`; two runs of
   the same seeded cluster serialize to byte-identical JSONL.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.history import CopyInstall, CopyRetire, Depart, Join, ReshardFlip
from ..sim import Simulator
from .events import TraceEvent


class Tracer:
    """Collects :class:`TraceEvent` records from an instrumented run."""

    __slots__ = ("sim", "events")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.events: List[TraceEvent] = []

    def emit(self, etype: str, pid: Optional[int] = None, **fields) -> None:
        """Record one event at the current simulated instant."""
        self.events.append(TraceEvent(self.sim.now, etype, pid, fields))

    # -- the History reader -------------------------------------------------

    def read(self, fact) -> None:
        """Emit the event of a ``History`` record the trace shows (a
        join, a non-crash depart, a reshard step); ignore the rest."""
        kind = type(fact)
        if kind is Join:
            self.emit("vp.join", pid=fact.pid, vpid=fact.vpid,
                      view=sorted(fact.view))
        elif kind is Depart:
            self.emit("vp.depart", pid=fact.pid, vpid=fact.vpid)
        elif kind is CopyInstall:
            self.emit("reshard.install", pid=fact.pid, obj=fact.obj,
                      source=fact.source)
        elif kind is CopyRetire:
            self.emit("reshard.retire", pid=fact.pid, obj=fact.obj)
        elif kind is ReshardFlip:
            self.emit("reshard.flip", pid=fact.pid, obj=fact.obj,
                      epoch=fact.new_epoch, holders=sorted(fact.new_weights))

    # -- introspection -------------------------------------------------------

    def by_type(self, etype: str) -> List[TraceEvent]:
        """All recorded events of exactly ``etype``."""
        return [e for e in self.events if e.etype == etype]

    def counts(self) -> dict:
        """``{event type: occurrences}`` over everything recorded."""
        totals: dict = {}
        for event in self.events:
            totals[event.etype] = totals.get(event.etype, 0) + 1
        return dict(sorted(totals.items()))

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"Tracer({len(self.events)} events)"
