"""The shared request/reply transport primitive.

Every layer of the protocol speaks the same ``send … receive …
[no-response: …]`` shape from the paper's figures: issue the same kind
of request to a set of processors in parallel (Fig. 10's read: to one),
wait under one deadline, and treat silence as evidence about the view.
Every such site routes through two primitives of the Processor:

* :class:`ScatterCall` — the one request/reply call, to one target or
  many, collected by a process (``scatter(…).gather()``; a *quorum
  predicate* drops the legs unanswered once the partial result map
  satisfies it) or by a continuation (``scatter(…).then(fn)``).
* ``broadcast_collect`` (on the processor) — one-way broadcast followed
  by a timed collection window, the Figs. 5/7 pattern where replies are
  independent messages.

A call costs the kernel its messages, one deadline (a call entry, no
event, however many legs) and one wake-up of its gatherer or
continuation: every reply is consumed by a callback at its delivery
(:meth:`Processor._on_delivery`); one in the deadline's instant is
late.  The call is a plain object, **not** a processor task: a crash
of the calling processor forgets the reply registrations, and the
deadline still fires once to count the silent legs — waking nobody if
the crash killed the gatherer — so nothing is orphaned.

:class:`TransportStats` counts every call (single-copy reads and
``txn-status`` queries included), its requests, silences and early
exits, and records the model-time duration of every completed gather —
the fan-out latency histogram the experiment harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional


#: predicate over the partial result map; True = stop waiting
QuorumPredicate = Callable[[Dict[int, Any]], bool]


@dataclass
class TransportStats:
    """Call accounting (cumulative, crash-proof); a cluster's
    processors share one."""

    #: scatter calls started, one-target and recovery read rounds included
    fanouts: int = 0
    #: broadcast_collect rounds
    broadcasts: int = 0
    #: request messages of scatter calls
    rpcs: int = 0
    #: requests still owing a reply (or an answer) at their deadline
    no_responses: int = 0
    #: gathers cut short by a satisfied quorum predicate
    early_exits: int = 0
    #: write fan-outs whose targets came from a directory lookup (no reads)
    routed_fanouts: int = 0
    #: replies that arrived after their waiter timed out or was dropped
    late_replies: int = 0
    #: model-time duration of each completed gather
    fanout_latencies: List[float] = field(default_factory=list)


class ScatterCall:
    """An in-flight request/reply call to one or more targets.

    Created by :meth:`Processor.scatter`; the requests leave
    immediately.  Call :meth:`gather` (a generator — drive it with
    ``yield from``) to wait for the result map ``{target: payload}``
    where ``None`` marks a silent target, or hand the map to a
    continuation with :meth:`then`.  Creating the call and gathering
    later lets a caller do local work (e.g. its own vote) while the
    requests are in flight.
    """

    def __init__(self, processor, targets: Iterable[int], kind: str,
                 payload_for: Callable[[int], Optional[Mapping[str, Any]]],
                 *, timeout: float):
        self.processor = processor
        self.sim = processor.sim
        self.started_at = self.sim.now
        stats = processor.transport
        stats.fanouts += 1
        #: reply payload (None = silence) per target, in arrival order
        self._results: Dict[int, Any] = {}
        #: request id -> target of every leg still unanswered
        self._pending: Dict[int, int] = {}
        self._quorum: Optional[QuorumPredicate] = None
        #: what :meth:`_finish` calls: wakes a gather or a continuation
        self._wake = None
        waiters = processor._reply_waiters
        on_reply = self._on_reply  # one bound method for all legs
        for server in targets:
            stats.rpcs += 1
            request = processor.send(server, kind, payload_for(server))
            self._pending[request.msg_id] = server
            waiters[request.msg_id] = on_reply
        self._targets = list(self._pending.values())
        if self._pending:  # the deadline's key, while it is pending
            self._deadline = self.sim.call(timeout, self._on_deadline)

    def _on_reply(self, message) -> None:
        self._results[self._pending.pop(message.reply_to)] = message.payload
        if self._pending:
            if self._quorum is None or not self._quorum(self._results):
                return
            self.processor.transport.early_exits += 1
        self.sim.cancel(self._deadline)
        self._finish()

    def _on_deadline(self, _arg) -> None:
        """Every leg still unanswered is a silence."""
        self._deadline = None
        self.processor.transport.no_responses += len(self._pending)
        for server in self._pending.values():
            self._results[server] = None
        self._finish()

    def _finish(self) -> None:
        """Forget the legs still unanswered; wake whoever waits."""
        waiters = self.processor._reply_waiters
        for request_id in self._pending:
            waiters.pop(request_id, None)
        self._pending.clear()
        if self._wake is not None:
            self._wake()

    def gather(self, quorum: Optional[QuorumPredicate] = None):
        """Generator: collect ``{target: payload_or_None}``.

        Without ``quorum``, waits until every target has answered or
        the call's deadline has passed, and returns the map in target
        order.  With it, the predicate is evaluated on the partial
        result map after every arrival; once satisfied the legs still
        unanswered are dropped and the partial map is returned in
        arrival order — absent targets are simply missing keys,
        distinct from the explicit ``None`` of a timed-out target.
        """
        if self._pending:
            self._quorum = quorum
            wake = self.sim.event()
            self._wake = wake.succeed
            yield wake
        self.processor.transport.fanout_latencies.append(
            self.sim.now - self.started_at)
        if quorum is not None:
            return self._results
        targets = self._targets
        return dict(zip(targets, map(self._results.__getitem__, targets)))

    def then(self, fn: Callable[[Dict[int, Any]], Any]) -> None:
        """:meth:`gather` without a process: ``fn(results)`` runs in the slot
        the wake-up would take (after a crash: dispatched, doing nothing).
        No closure refers back to the call, so no cycle outlives it."""
        processor, incarnation = self.processor, self.processor.incarnation
        sim, results, targets = self.sim, self._results, self._targets
        started_at = self.started_at

        def resume(_arg) -> None:
            if processor.incarnation == incarnation:
                processor.transport.fanout_latencies.append(
                    sim.now - started_at)
                fn(dict(zip(targets, map(results.__getitem__, targets))))

        if self._pending:
            self._wake = lambda: sim.call(0, resume)
        else:
            resume(None)
