"""The shared fan-out transport primitive.

Every layer of the protocol speaks the same ``send … receive …
[no-response: …]`` shape from the paper's figures: issue the same kind
of request to a set of processors in parallel, wait under one deadline,
and treat silence as evidence about the view.  Every such site routes
through two primitives owned by the :class:`~repro.node.processor.
Processor`:

* :class:`ScatterCall` — parallel RPCs with per-target reply matching
  (``scatter`` / ``gather``, or the one-shot ``scatter_gather``).  A
  caller-supplied *quorum predicate* enables early exit: once the
  responses collected so far satisfy it, the legs still unanswered are
  dropped and the partial result map is returned
  (``scatter_gather(..., quorum=…)``).
* ``broadcast_collect`` (on the processor) — one-way broadcast followed
  by a timed collection window, the Figs. 5/7 pattern where replies are
  *not* RPC responses but independent messages.

A call costs the kernel its messages and one deadline: every reply is
consumed by a callback at its delivery (:meth:`Processor._on_delivery`),
and the whole call — however many legs — holds one kernel call entry
(no event) on the schedule.  The call is a plain object,
**not** a processor task: a crash of the calling processor forgets the
reply registrations, and the deadline still fires to count the silent
legs, so nothing is orphaned.

:class:`TransportStats` counts fan-outs, per-target RPCs, silences and
early exits, and records the model-time duration of every completed
gather — the fan-out latency histogram the experiment harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional


class NoResponse(Exception):
    """An expected reply did not arrive within the timeout.

    This is the trigger for the paper's ``[no-response: Create-new-VP;
    ...]`` exception handlers: a missing reply is evidence that the
    local view no longer matches the can-communicate relation.
    """

    def __init__(self, dst: int, kind: str):
        super().__init__(f"no response from {dst} to {kind!r}")
        self.dst = dst
        self.kind = kind


#: predicate over the partial result map; True = stop waiting
QuorumPredicate = Callable[[Dict[int, Any]], bool]


@dataclass
class TransportStats:
    """Fan-out accounting (cumulative, crash-proof); a cluster's
    processors share one."""

    #: completed or started scatter calls
    fanouts: int = 0
    #: broadcast_collect rounds
    broadcasts: int = 0
    #: individual request RPCs issued by scatter calls
    rpcs: int = 0
    #: RPCs that timed out without a reply
    no_responses: int = 0
    #: gathers cut short by a satisfied quorum predicate
    early_exits: int = 0
    #: scatter calls whose target set came from a directory lookup
    routed_fanouts: int = 0
    #: replies that arrived after their waiter timed out or was dropped
    late_replies: int = 0
    #: model-time duration of each completed gather
    fanout_latencies: List[float] = field(default_factory=list)


class ScatterCall:
    """An in-flight parallel RPC fan-out.

    Created by :meth:`Processor.scatter`; the requests leave
    immediately.  Call :meth:`gather` (a generator — drive it with
    ``yield from``) to wait for the result map ``{target: payload}``
    where ``None`` marks a silent target.  Creating the call and
    gathering later lets a caller do local work (e.g. its own vote)
    while the requests are in flight, exactly like the hand-rolled
    two-phase sites did.
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
        #: the event a blocked :meth:`gather` waits on
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
        """Forget the legs still unanswered; wake a blocked gather."""
        waiters = self.processor._reply_waiters
        for request_id in self._pending:
            waiters.pop(request_id, None)
        self._pending.clear()
        if self._wake is not None:
            self._wake.succeed()

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
            self._wake = self.sim.event()
            yield self._wake
        self.processor.transport.fanout_latencies.append(
            self.sim.now - self.started_at)
        if quorum is not None:
            return self._results
        return {server: self._results[server] for server in self._targets}
