"""The structured trace event model.

A trace is a flat, time-ordered stream of typed events stamped with
simulated time, the emitting processor, and (where meaningful) the
virtual partition the event belongs to.  Event types are dotted names
grouped by subsystem (``msg.*``, ``vp.*``, ``lock.*``, ``txn.*``,
``recover.*``, ``fail.*``, ``proc.*``) so analyzers can select whole
families by prefix.

Everything in an event must serialize *deterministically*: two runs of
the same seeded simulation must produce byte-identical JSONL traces
(the replay-debugging guarantee tested by
``tests/obs/test_determinism.py``).  That is why :func:`jsonable`
exists — it normalizes sets to sorted lists, :class:`~repro.core.ids.
VpId` and transaction ids to strings, and never falls back to a repr
that could embed a memory address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.ids import VpId

# -- message transport ------------------------------------------------------
MSG_SEND = "msg.send"
MSG_RECV = "msg.recv"
MSG_DROP = "msg.drop"
MSG_LATE_REPLY = "msg.late-reply"  # reply arrived after its waiter left

# -- failure injection and the processor lifecycle --------------------------
FAIL_INJECT = "fail.inject"
PROC_CRASH = "proc.crash"
PROC_RECOVER = "proc.recover"

# -- virtual partition formation (Figs. 4-6) --------------------------------
VP_DEPART = "vp.depart"
VP_INVITE = "vp.invite"           # initiator sent newvp to everyone
VP_ACCEPT = "vp.accept"           # acceptor agreed to an invitation
VP_ACCEPT_RECV = "vp.accept-recv"  # initiator collected one acceptance
VP_ABANDON = "vp.abandon"         # a higher id arrived during the 2delta wait
VP_COMMIT = "vp.commit"           # initiator committed the new view
VP_JOIN = "vp.join"               # a processor committed to a partition
VP_COMMIT_TIMEOUT = "vp.commit-timeout"  # Fig. 6's 3delta timer fired
VP_COMMIT_EXCLUDED = "vp.commit-excluded"  # committed view excludes us (S2 guard)

# -- rule R5: Update-Copies-in-View (Fig. 9, §6) ---------------------------
RECOVER_START = "recover.start"
RECOVER_FRESH = "recover.fresh"    # split-off fast path: no reads needed
RECOVER_OBJECT = "recover.object"  # one copy brought up to date

# -- concurrency control ----------------------------------------------------
LOCK_GRANT = "lock.grant"
LOCK_WAIT = "lock.wait"
LOCK_DROP = "lock.drop"      # a queued request was cancelled/abandoned
LOCK_RELEASE = "lock.release"

# -- transactions -----------------------------------------------------------
TXN_BEGIN = "txn.begin"
TXN_COMMIT = "txn.commit"
TXN_ABORT = "txn.abort"
TXN_INDOUBT = "txn.indoubt"   # prepared participant lost its decide
TXN_RESOLVE = "txn.resolve"   # resolver learned the 2PC outcome

# -- runtime invariant auditor ----------------------------------------------
AUDIT_VIOLATION = "audit.violation"


def jsonable(value: Any) -> Any:
    """Normalize ``value`` into a deterministic JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, VpId):  # a tuple that renders as ``vp(n,pid)``
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    return str(value)


@dataclass
class TraceEvent:
    """One structured trace record.

    ``fields`` carries the per-type payload (object names, message
    kinds, views, reasons, ...); ``pid`` is the emitting processor or
    ``None`` for system-level events.
    """

    time: float
    etype: str
    pid: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A flat dict with the reserved keys ``t``, ``e``, ``p``."""
        record: Dict[str, Any] = {"t": self.time, "e": self.etype,
                                  "p": self.pid}
        for key in sorted(self.fields):
            record[key] = jsonable(self.fields[key])
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        fields = {k: v for k, v in record.items() if k not in ("t", "e", "p")}
        return cls(time=record["t"], etype=record["e"],
                   pid=record.get("p"), fields=fields)

    def __repr__(self) -> str:
        return (f"TraceEvent({self.time:g} {self.etype} p={self.pid} "
                f"{self.fields!r})")
