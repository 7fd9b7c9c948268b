"""Message transport over the dynamic communication graph.

Failure semantics implemented here (§2 of the paper — omission and
performance failures):

* **omission**: a message is dropped if the edge is absent at send time,
  absent at the scheduled delivery time (the link died while the message
  was in flight), the destination is down at delivery, or the per-link
  loss process fires;
* **performance**: with probability ``slow_prob`` a message is delayed
  beyond the declared bound δ by factor ``slow_factor`` — it still
  arrives, but later than the protocol's timers allow, which is exactly
  how the paper distinguishes performance failures from crashes;
* **duplication** is supported for robustness testing (off by default).

**Per-link perturbations** refine all three failure classes for
adversarial testing: a *delay surge* multiplies one direction's latency
draws (a sustained performance failure on one route), *grey loss*
overrides the loss probability on one direction (a link that is up but
lossy — neither cleanly cut nor healthy), and a *duplication storm*
raises the duplication probability on one direction.  Directed cuts
live in :class:`CommGraph` (``can_send``); the transport consults the
directed relation, so an asymmetric cut drops one direction's traffic
while the reverse flows normally.  With no perturbations installed the
draw sequence is byte-identical to the unperturbed transport.

Every message is one kernel call entry: ``send`` makes its draws and
schedules ``_deliver`` on the message (no event: nobody yields on a
delivery).  The in-flight check is a version stamp: the entry also
carries the graph's ``version`` as of the send, and ``_deliver`` asks
``can_send`` again only if the graph changed since.

Everything is counted in :class:`NetworkStats`, so the benchmark
harness can report message costs per logical operation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, Optional, Tuple

from ..sim import Simulator
from .latency import LatencyModel
from .message import Message
from .topology import CommGraph

DeliveryHandler = Callable[[Message], None]


@dataclass
class NetworkStats:
    """Counters for everything the transport did.

    ``sent`` counts messages — what the protocol pays for in the
    paper's cost model.
    """

    sent: int = 0
    delivered: int = 0
    dropped_no_edge: int = 0
    dropped_in_flight: int = 0
    dropped_lost: int = 0
    #: arrivals at a live node that has no handler registered (a
    #: crashed destination has no edges: it counts ``dropped_in_flight``)
    dropped_dst_down: int = 0
    duplicated: int = 0
    slow: int = 0
    #: messages whose delay was stretched by a per-link delay surge
    surged: int = 0
    by_kind: Dict[str, int] = field(default_factory=Counter)

    @property
    def dropped(self) -> int:
        return (self.dropped_no_edge + self.dropped_in_flight
                + self.dropped_lost + self.dropped_dst_down)

    def snapshot(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "slow": self.slow,
            # transmissions, duplicates included; read only by
            # ledger/metrics.py:78 and leaves with that row
            "envelopes": self.sent + self.duplicated,
            "by_kind": dict(self.by_kind),
        }


class Network:
    """Routes messages between registered processors."""

    def __init__(self, sim: Simulator, graph: CommGraph,
                 latency: LatencyModel, rng: random.Random,
                 loss_prob: float = 0.0,
                 slow_prob: float = 0.0, slow_factor: float = 5.0,
                 dup_prob: float = 0.0):
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob out of range: {loss_prob}")
        if not 0.0 <= slow_prob < 1.0:
            raise ValueError(f"slow_prob out of range: {slow_prob}")
        if not 0.0 <= dup_prob < 1.0:
            raise ValueError(f"dup_prob out of range: {dup_prob}")
        if slow_factor <= 1.0:
            raise ValueError("slow_factor must exceed 1")
        self.sim = sim
        self.graph = graph
        self.latency = latency
        self.rng = rng
        self.loss_prob = loss_prob
        self.slow_prob = slow_prob
        self.slow_factor = slow_factor
        self.dup_prob = dup_prob
        self.stats = NetworkStats()
        # per-(src, dst) adversarial perturbations, read only while one
        # is non-empty: the unperturbed draw sequence is untouched
        self._link_loss: Dict[Tuple[int, int], float] = {}
        self._link_surge: Dict[Tuple[int, int], float] = {}
        self._link_dup: Dict[Tuple[int, int], float] = {}
        self._handlers: dict[int, DeliveryHandler] = {}
        #: the next message id on this network's own stream (same-seed
        #: clusters built back-to-back see equal ids); a C call, no frame
        self.next_msg_id: Callable[[], int] = count(1).__next__
        #: optional wiretap for tests: called with every sent message
        self.tap: Optional[Callable[[Message], None]] = None
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None

    # -- per-link perturbations (adversarial fault model) ----------------------

    def set_grey_loss(self, src: int, dst: int, prob: float) -> None:
        """Override the loss probability on the ``src`` → ``dst`` route.

        Models a *grey* link: up, but dropping a fraction of its
        traffic — the omission failure that is neither a clean cut nor
        a healthy edge.
        """
        if not 0.0 <= prob < 1.0:
            raise ValueError(f"loss prob out of range: {prob}")
        self._link_loss[(src, dst)] = prob

    def clear_grey_loss(self, src: int, dst: int) -> None:
        self._link_loss.pop((src, dst), None)

    def set_delay_surge(self, src: int, dst: int, factor: float) -> None:
        """Multiply every ``src`` → ``dst`` latency draw by ``factor``.

        A sustained performance failure on one route: messages still
        arrive, but (for factors pushing the draw past δ) later than
        the protocol's timers allow.
        """
        if factor < 1.0:
            raise ValueError(f"surge factor must be >= 1: {factor}")
        self._link_surge[(src, dst)] = factor

    def clear_delay_surge(self, src: int, dst: int) -> None:
        self._link_surge.pop((src, dst), None)

    def set_dup_storm(self, src: int, dst: int, prob: float) -> None:
        """Override the duplication probability on ``src`` → ``dst``."""
        if not 0.0 <= prob < 1.0:
            raise ValueError(f"dup prob out of range: {prob}")
        self._link_dup[(src, dst)] = prob

    def clear_dup_storm(self, src: int, dst: int) -> None:
        self._link_dup.pop((src, dst), None)

    def register(self, pid: int, handler: DeliveryHandler) -> None:
        """Attach the delivery callback for processor ``pid``."""
        if pid not in self.graph.nodes:
            raise KeyError(f"unknown processor {pid}")
        self._handlers[pid] = handler

    def send(self, message: Message) -> None:
        """Put ``message`` in flight; delivery (or loss) is resolved later."""
        src, dst = message.src, message.dst
        graph = self.graph
        if dst not in graph.nodes:
            raise KeyError(f"unknown destination {dst}")
        stats = self.stats
        stats.sent += 1
        stats.by_kind[message.kind] += 1
        seq = stats.sent  # rides in the delivery entry, for the trace
        if self.tap is not None:
            self.tap(message)
        if self.tracer is not None:
            self.tracer.emit("msg.send", pid=src, dst=dst,
                             kind=message.kind, seq=seq)
        if not graph.can_send(src, dst):
            stats.dropped_no_edge += 1
            self._trace_drop(message, "no-edge", seq)
            return
        rng = self.rng
        loss, surge, dup = self.loss_prob, None, self.dup_prob
        if self._link_loss or self._link_surge or self._link_dup:
            key = (src, dst)
            loss = self._link_loss.get(key, loss)
            surge = self._link_surge.get(key)
            dup = self._link_dup.get(key, dup)
        if loss and rng.random() < loss:
            stats.dropped_lost += 1
            self._trace_drop(message, "lost", seq)
            return
        delay = self.latency.delay(src, dst, rng)
        if self.slow_prob and rng.random() < self.slow_prob:
            delay *= self.slow_factor
            stats.slow += 1
        if surge is not None:
            delay *= surge
            stats.surged += 1
        flight = (message, graph.version, seq)
        self.sim.call(delay, self._deliver, flight)
        if dup and rng.random() < dup:
            stats.duplicated += 1
            dup_delay = self.latency.delay(src, dst, rng)
            if surge is not None:
                dup_delay *= surge
            self.sim.call(dup_delay, self._deliver, flight)

    def _deliver(self, flight) -> None:
        message, version, seq = flight
        graph = self.graph
        # every CommGraph mutation bumps ``version``: if it has not
        # moved since the send, the send-time ``can_send`` still holds
        if (version != graph.version
                and not graph.can_send(message.src, message.dst)):
            self.stats.dropped_in_flight += 1
            self._trace_drop(message, "in-flight", seq)
            return
        try:
            handler = self._handlers[message.dst]
        except KeyError:
            self.stats.dropped_dst_down += 1
            self._trace_drop(message, "dst-down", seq)
            return
        self.stats.delivered += 1
        if self.tracer is not None:
            self.tracer.emit(
                "msg.recv", pid=message.dst, src=message.src,
                kind=message.kind, seq=seq,
                latency=self.sim.now - message.sent_at,
            )
        handler(message)

    def _trace_drop(self, message: Message, reason: str, seq: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "msg.drop", pid=message.dst, src=message.src,
                kind=message.kind, reason=reason, seq=seq,
            )
