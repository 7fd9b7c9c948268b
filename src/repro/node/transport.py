"""The shared fan-out transport primitive.

Every layer of the protocol speaks the same ``send … receive …
[no-response: …]`` shape from the paper's figures: issue the same kind
of request to a set of processors in parallel, wait under one deadline,
and treat silence as evidence about the view.  Before this module each
layer hand-rolled that loop (``one_write``, ``one_vote``, ``one_read``,
the accept/ack collection loops, ``_fanout``); now they all route
through two primitives owned by the :class:`~repro.node.processor.
Processor`:

* :class:`ScatterCall` — parallel RPCs with per-target reply matching
  (``scatter`` / ``gather``, or the one-shot ``scatter_gather``).  A
  caller-supplied *quorum predicate* enables early exit: once the
  responses collected so far satisfy it, the remaining workers are
  killed and the partial result map is returned
  (``scatter_gather(..., quorum=…)``).
* ``broadcast_collect`` (on the processor) — one-way broadcast followed
  by a timed mailbox collection window, the Figs. 5/7 pattern where
  replies are *not* RPC responses but independent messages.

Workers are plain simulation processes, **not** processor tasks: a
crash of the calling processor must not orphan the gather — each worker
is bounded by its RPC timeout, and a crashed sender's messages are
dropped by the network anyway.  (This preserves the crash semantics the
hand-rolled sites documented individually.)

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
    """Per-processor fan-out accounting (cumulative, crash-proof)."""

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
    #: replies that arrived after their waiter timed out or was killed
    late_replies: int = 0
    #: model-time duration of each completed gather
    fanout_latencies: List[float] = field(default_factory=list)


class ScatterCall:
    """An in-flight parallel RPC fan-out.

    Created by :meth:`Processor.scatter`; the request workers start
    immediately.  Call :meth:`gather` (a generator — drive it with
    ``yield from``) to wait for the result map ``{target: payload}``
    where ``None`` marks a silent target.  Creating the call and
    gathering later lets a caller do local work (e.g. its own vote)
    while the requests are in flight, exactly like the hand-rolled
    two-phase sites did.
    """

    def __init__(self, processor, targets: Iterable[int], kind: str,
                 payload_for: Callable[[int], Optional[Mapping[str, Any]]],
                 *, timeout: float, label: Optional[str] = None):
        self.processor = processor
        self.sim = processor.sim
        self.kind = kind
        self.started_at = self.sim.now
        stats = processor.transport
        stats.fanouts += 1
        prefix = label or kind
        self._procs: Dict[int, Any] = {}
        for server in targets:
            stats.rpcs += 1
            self._procs[server] = self.sim.process(
                self._one(server, payload_for(server), timeout),
                name=f"{prefix}->{server}",
            )

    def _one(self, server: int, payload, timeout: float):
        try:
            response = yield from self.processor.rpc(
                server, self.kind, payload, timeout=timeout
            )
        except NoResponse:
            self.processor.transport.no_responses += 1
            return None
        return response.payload

    def gather(self, quorum: Optional[QuorumPredicate] = None):
        """Generator: collect ``{target: payload_or_None}``.

        Without ``quorum``, waits for every worker (each bounded by the
        call's timeout).  With it, the predicate is evaluated on the
        partial result map after every arrival; once satisfied the
        remaining workers are killed and the partial map is returned —
        absent targets are simply missing keys, distinct from the
        explicit ``None`` of a timed-out target.
        """
        stats = self.processor.transport
        procs = self._procs
        if not procs:
            stats.fanout_latencies.append(0.0)
            return {}
        if quorum is None:
            fired = yield self.sim.all_of(list(procs.values()))
            results = {server: fired[proc] for server, proc in procs.items()}
        else:
            results: Dict[int, Any] = {}
            pending = dict(procs)
            while pending:
                fired = yield self.sim.any_of(list(pending.values()))
                for server, proc in list(pending.items()):
                    if proc in fired:
                        results[server] = fired[proc]
                        del pending[server]
                if pending and quorum(results):
                    for proc in pending.values():
                        if proc.is_alive:
                            proc.kill()
                    stats.early_exits += 1
                    break
        stats.fanout_latencies.append(self.sim.now - self.started_at)
        return results
