"""Trace analysis: reconstruct protocol behaviour from an event stream.

The analyzer consumes the flat JSONL event stream and rebuilds the
artifacts a replication engineer actually debugs with:

* **per-view timelines** — for every virtual partition id: who
  initiated it, when the invitations went out, who accepted and when,
  when it committed, who joined, and when rule R5 finished bringing
  each copy up to date;
* **message breakdowns** — sends/deliveries/drops by message kind;
* **lock-wait distributions** — how long admissions queued, matched
  wait→grant per (processor, object, transaction);
* **transaction outcomes** — commit/abort counts, abort reasons, and
  commit latency percentiles;
* **view-formation critical paths** — the invite → last-accept →
  commit → last-join → recovery-done segment chain whose longest leg
  explains a slow view change.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import events as ev
from .events import TraceEvent
from .metrics import summarize

_VPID_RE = re.compile(r"vp\((\d+),(\d+)\)")


def vpid_key(vpid: str) -> Tuple[int, int]:
    """Sort key matching the protocol's total order on vp-ids."""
    match = _VPID_RE.fullmatch(vpid)
    if match is None:
        return (1 << 62, 0)  # unknown formats sort last
    return (int(match.group(1)), int(match.group(2)))


@dataclass
class ViewFormation:
    """Everything the trace says about one virtual partition."""

    vpid: str
    initiator: Optional[int] = None
    invited_at: Optional[float] = None
    accepts: List[Tuple[float, int]] = field(default_factory=list)
    committed_at: Optional[float] = None
    view: Optional[list] = None
    joins: Dict[int, float] = field(default_factory=dict)
    recoveries: List[Tuple[float, int, str]] = field(default_factory=list)
    abandoned: bool = False

    @property
    def formed(self) -> bool:
        return bool(self.joins)

    @property
    def last_join(self) -> Optional[float]:
        return max(self.joins.values()) if self.joins else None

    @property
    def recovery_done(self) -> Optional[float]:
        return max(t for t, _, _ in self.recoveries) \
            if self.recoveries else None


class TraceAnalyzer:
    """Pure functions of a recorded (or re-loaded) event stream."""

    def __init__(self, events: Iterable[TraceEvent]):
        self.events = sorted(events, key=lambda e: e.time)

    # -- view formation -------------------------------------------------------

    def view_timelines(self) -> Dict[str, ViewFormation]:
        """Per-vpid formation records, in the protocol's vp-id order."""
        views: Dict[str, ViewFormation] = {}

        def view_for(vpid: str) -> ViewFormation:
            record = views.get(vpid)
            if record is None:
                record = views[vpid] = ViewFormation(vpid)
            return record

        for event in self.events:
            etype = event.etype
            if not (etype.startswith("vp.") or etype.startswith("recover.")):
                continue
            vpid = event.fields.get("vpid")
            if vpid is None:
                continue
            record = view_for(str(vpid))
            if etype == ev.VP_INVITE:
                record.initiator = event.pid
                if record.invited_at is None:
                    record.invited_at = event.time
            elif etype == ev.VP_ACCEPT:
                record.accepts.append((event.time, event.pid))
            elif etype == ev.VP_COMMIT:
                record.committed_at = event.time
                record.view = event.fields.get("view")
            elif etype == ev.VP_JOIN:
                record.joins[event.pid] = event.time
                if record.view is None:
                    record.view = event.fields.get("view")
            elif etype == ev.VP_ABANDON:
                record.abandoned = True
            elif etype == ev.RECOVER_OBJECT or etype == ev.RECOVER_FRESH:
                record.recoveries.append(
                    (event.time, event.pid, event.fields.get("obj", "?"))
                )
        return dict(sorted(views.items(), key=lambda kv: vpid_key(kv[0])))

    def critical_path(self, vpid: str) -> List[Tuple[str, float, float]]:
        """The formation's segment chain as ``(label, start, end)``.

        Segments with no trace evidence (e.g. a bootstrap partition that
        was never invited) are omitted; durations are end - start.
        """
        record = self.view_timelines().get(vpid)
        if record is None:
            return []
        path: List[Tuple[str, float, float]] = []
        cursor = record.invited_at
        if cursor is not None and record.accepts:
            last_accept = max(t for t, _ in record.accepts)
            path.append(("invite->last-accept", cursor, last_accept))
            cursor = last_accept
        if cursor is not None and record.committed_at is not None:
            path.append(("accepts->commit", cursor, record.committed_at))
            cursor = record.committed_at
        if record.last_join is not None:
            start = cursor if cursor is not None else record.last_join
            path.append(("commit->last-join", start, record.last_join))
            cursor = record.last_join
        if record.recovery_done is not None and cursor is not None:
            path.append(("join->recovery-done", cursor,
                         record.recovery_done))
        return path

    # -- messages -------------------------------------------------------------

    def message_breakdown(self) -> Dict[str, Dict[str, int]]:
        """``{message kind: {sent, delivered, dropped}}``, sorted."""
        table: Dict[str, Dict[str, int]] = {}
        column = {ev.MSG_SEND: "sent", ev.MSG_RECV: "delivered",
                  ev.MSG_DROP: "dropped"}
        for event in self.events:
            name = column.get(event.etype)
            if name is None:
                continue
            kind = event.fields.get("kind", "?")
            row = table.setdefault(
                kind, {"sent": 0, "delivered": 0, "dropped": 0})
            row[name] += 1
        return dict(sorted(table.items()))

    # -- locks ----------------------------------------------------------------

    def lock_waits(self) -> dict:
        """Summary of wait→grant durations, matched per (pid, object,
        transaction).

        Requests that never got granted (dropped on timeout or still
        queued at the end of the trace) are not wait samples — they show
        up in ``lock.drop`` counts instead.
        """
        pending: Dict[tuple, float] = {}
        waits: List[float] = []
        for event in self.events:
            if event.etype not in (ev.LOCK_WAIT, ev.LOCK_GRANT,
                                   ev.LOCK_DROP):
                continue
            key = (event.pid, event.fields.get("obj"),
                   event.fields.get("txn"))
            if event.etype == ev.LOCK_WAIT:
                pending[key] = event.time
            else:
                started = pending.pop(key, None)
                if started is not None and event.etype == ev.LOCK_GRANT:
                    waits.append(event.time - started)
        return summarize(waits)

    # -- transactions ---------------------------------------------------------

    def txn_outcomes(self) -> dict:
        """Counts, abort reasons, and commit-latency distribution."""
        begun: Dict[str, float] = {}
        committed = aborted = 0
        reasons: Dict[str, int] = {}
        latencies: List[float] = []
        for event in self.events:
            txn = event.fields.get("txn")
            if event.etype == ev.TXN_BEGIN:
                begun[txn] = event.time
            elif event.etype == ev.TXN_COMMIT:
                committed += 1
                if txn in begun:
                    latencies.append(event.time - begun[txn])
            elif event.etype == ev.TXN_ABORT:
                aborted += 1
                reason = str(event.fields.get("reason", "?")).split(":")[0]
                reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "begun": len(begun),
            "committed": committed,
            "aborted": aborted,
            "abort_reasons": dict(sorted(reasons.items())),
            "latency": summarize(latencies),
        }

    # -- rollups --------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.etype] = totals.get(event.etype, 0) + 1
        return dict(sorted(totals.items()))

    def summary(self) -> dict:
        """One JSON-ready dict with every analysis rolled up."""
        views = self.view_timelines()
        return {
            "events": len(self.events),
            "by_type": self.counts(),
            "messages": self.message_breakdown(),
            "lock_waits": self.lock_waits(),
            "txns": self.txn_outcomes(),
            "views": {
                vpid: {
                    "initiator": record.initiator,
                    "invited_at": record.invited_at,
                    "accepts": len(record.accepts),
                    "committed_at": record.committed_at,
                    "view": record.view,
                    "joins": {str(p): t for p, t
                              in sorted(record.joins.items())},
                    "recoveries": len(record.recoveries),
                }
                for vpid, record in views.items()
            },
        }

    def render(self) -> str:
        """A human-readable report of the run."""
        lines: List[str] = []
        views = self.view_timelines()
        lines.append(f"trace: {len(self.events)} events, "
                     f"{len(views)} virtual partitions")
        lines.append("")
        lines.append("view formations:")
        for vpid, record in views.items():
            joined = ",".join(str(p) for p in sorted(record.joins))
            stamp = (f"committed@{record.committed_at:g}"
                     if record.committed_at is not None else
                     ("abandoned" if record.abandoned else "bootstrap"))
            lines.append(f"  {vpid}: {stamp} "
                         f"accepts={len(record.accepts)} "
                         f"joined=[{joined}] "
                         f"recoveries={len(record.recoveries)}")
            for label, start, end in self.critical_path(vpid):
                lines.append(f"      {label}: {start:g} -> {end:g} "
                             f"(+{end - start:g})")
        lines.append("")
        lines.append("messages (kind: sent/delivered/dropped):")
        for kind, row in self.message_breakdown().items():
            lines.append(f"  {kind}: {row['sent']}/{row['delivered']}"
                         f"/{row['dropped']}")
        waits = self.lock_waits()
        lines.append("")
        lines.append(f"lock waits: {waits}")
        txns = self.txn_outcomes()
        lines.append(f"txns: committed={txns['committed']} "
                     f"aborted={txns['aborted']} "
                     f"reasons={txns['abort_reasons']}")
        return "\n".join(lines)
