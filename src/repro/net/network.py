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

**Batching** (``batch_window > 0``): logical messages enqueued for the
same (src, dst) pair within one window coalesce into a single batch
envelope — one latency draw, one loss draw, one delivery event for the
whole batch, the way real transports amortize per-message cost.  The
window opener's arrival time is unchanged (arrival = open + max(delay,
window) and delay ≥ window is the common case with window ≤ δ), and
followers arrive *no later* than they would have alone — δ stays an
upper bound, so every protocol timer derived from it remains sound.
At arrival the carried messages are handed one by one, in carry order,
to the destination's handler — the same path an unbatched message
takes.  ``batch_window = 0`` (the default) preserves the unbatched
behavior exactly, draw for draw.

Everything is counted in :class:`NetworkStats` — logical messages
*and* physical envelopes — so the benchmark harness can report message
costs per logical operation and the batching win is measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Simulator
from .latency import LatencyModel
from .message import Message
from .topology import CommGraph

DeliveryHandler = Callable[[Message], None]


@dataclass
class NetworkStats:
    """Counters for everything the transport did.

    ``sent`` counts *logical* messages (what the protocol pays for in
    the paper's cost model); ``envelopes`` counts *physical*
    transmissions — with batching several logical messages share one
    envelope, without it the two counters track each other.
    """

    sent: int = 0
    delivered: int = 0
    dropped_no_edge: int = 0
    dropped_in_flight: int = 0
    dropped_lost: int = 0
    dropped_dst_down: int = 0
    duplicated: int = 0
    slow: int = 0
    #: messages whose delay was stretched by a per-link delay surge
    surged: int = 0
    #: physical transmissions (one latency/loss draw each)
    envelopes: int = 0
    #: logical messages carried by those envelopes
    enveloped_messages: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return (self.dropped_no_edge + self.dropped_in_flight
                + self.dropped_lost + self.dropped_dst_down)

    @property
    def batch_occupancy(self) -> float:
        """Mean logical messages per envelope (1.0 = no batching win)."""
        return (self.enveloped_messages / self.envelopes
                if self.envelopes else 0.0)

    def snapshot(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "slow": self.slow,
            "envelopes": self.envelopes,
            "batch_occupancy": self.batch_occupancy,
            "by_kind": dict(self.by_kind),
        }


class Network:
    """Routes messages between registered processors."""

    def __init__(self, sim: Simulator, graph: CommGraph,
                 latency: LatencyModel, rng: random.Random,
                 loss_prob: float = 0.0,
                 slow_prob: float = 0.0, slow_factor: float = 5.0,
                 dup_prob: float = 0.0, batch_window: float = 0.0):
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob out of range: {loss_prob}")
        if not 0.0 <= slow_prob < 1.0:
            raise ValueError(f"slow_prob out of range: {slow_prob}")
        if not 0.0 <= dup_prob < 1.0:
            raise ValueError(f"dup_prob out of range: {dup_prob}")
        if slow_factor <= 1.0:
            raise ValueError("slow_factor must exceed 1")
        if batch_window < 0.0:
            raise ValueError(f"negative batch_window: {batch_window}")
        self.sim = sim
        self.graph = graph
        self.latency = latency
        self.rng = rng
        self.loss_prob = loss_prob
        self.slow_prob = slow_prob
        self.slow_factor = slow_factor
        self.dup_prob = dup_prob
        self.batch_window = batch_window
        self.stats = NetworkStats()
        # per-(src, dst) adversarial perturbations; empty dicts by
        # default so the unperturbed draw sequence is untouched
        self._link_loss: Dict[Tuple[int, int], float] = {}
        self._link_surge: Dict[Tuple[int, int], float] = {}
        self._link_dup: Dict[Tuple[int, int], float] = {}
        self._handlers: dict[int, DeliveryHandler] = {}
        # per-network message ids: two clusters built in one process
        # must see identical id streams for the same seed (a process-
        # global counter would break back-to-back determinism)
        self._msg_ids = count(1)
        # open batch envelopes, keyed by (src, dst)
        self._pending: Dict[Tuple[int, int], List[Message]] = {}
        #: optional wiretap for tests: called with every sent message
        self.tap: Optional[Callable[[Message], None]] = None
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        # per-run message sequence numbers for trace correlation (kept
        # even with per-network msg_ids: directly constructed test
        # messages still draw from the global fallback counter)
        self._trace_seq: dict[int, int] = {}

    def next_msg_id(self) -> int:
        """Allocate the next message id on this network's own stream."""
        return next(self._msg_ids)

    @property
    def delta(self) -> float:
        """The δ bound the protocol's timers are derived from."""
        return self.latency.bound

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

    def perturbed_links(self) -> set[Tuple[int, int]]:
        """Routes currently carrying any perturbation (for reports)."""
        return (set(self._link_loss) | set(self._link_surge)
                | set(self._link_dup))

    def register(self, pid: int, handler: DeliveryHandler) -> None:
        """Attach the delivery callback for processor ``pid``."""
        if pid not in self.graph.nodes:
            raise KeyError(f"unknown processor {pid}")
        self._handlers[pid] = handler

    def send(self, message: Message) -> None:
        """Put ``message`` in flight; delivery (or loss) is resolved later."""
        if message.dst not in self.graph.nodes:
            raise KeyError(f"unknown destination {message.dst}")
        self.stats.sent += 1
        self.stats.by_kind[message.kind] = (
            self.stats.by_kind.get(message.kind, 0) + 1
        )
        if self.tap is not None:
            self.tap(message)
        if self.tracer is not None:
            self._trace_seq[id(message)] = self.stats.sent
            self.tracer.emit(
                "msg.send", pid=message.src, dst=message.dst,
                kind=message.kind, seq=self.stats.sent,
            )
        if self.batch_window <= 0.0:
            self._transmit((message,), held=0.0)
            return
        key = (message.src, message.dst)
        pending = self._pending.get(key)
        if pending is not None:
            # an envelope to this destination is already open: ride it
            pending.append(message)
            return
        self._pending[key] = [message]
        flush = self.sim.timeout(
            self.batch_window, name=f"flush#{message.src}->{message.dst}"
        )
        flush.add_callback(lambda _event, k=key: self._flush(k))

    def _flush(self, key: Tuple[int, int]) -> None:
        batch = self._pending.pop(key, None)
        if batch:
            self._transmit(tuple(batch), held=self.batch_window)

    def _transmit(self, batch: Tuple[Message, ...], held: float) -> None:
        """Resolve one envelope: edge/loss/latency draws for the batch.

        ``held`` is how long the envelope sat open before the draws;
        the opener's total arrival time is ``held + max(delay - held,
        0)`` — unchanged whenever ``delay >= held``, which the
        ``batch_window <= delta`` constraint guarantees for in-bound
        latency models.
        """
        first = batch[0]
        key = (first.src, first.dst)
        n = len(batch)
        self.stats.envelopes += 1
        self.stats.enveloped_messages += n
        if not self.graph.can_send(first.src, first.dst):
            self.stats.dropped_no_edge += n
            for message in batch:
                self._trace_drop(message, "no-edge")
            return
        loss = self._link_loss.get(key, self.loss_prob)
        if loss and self.rng.random() < loss:
            self.stats.dropped_lost += n
            for message in batch:
                self._trace_drop(message, "lost")
            return
        delay = self.latency.delay(first.src, first.dst, self.rng)
        if self.slow_prob and self.rng.random() < self.slow_prob:
            delay *= self.slow_factor
            self.stats.slow += n
        surge = self._link_surge.get(key)
        if surge is not None:
            delay *= surge
            self.stats.surged += n
        self._schedule_delivery(batch, max(delay - held, 0.0))
        dup = self._link_dup.get(key, self.dup_prob)
        if dup and self.rng.random() < dup:
            self.stats.duplicated += n
            self.stats.envelopes += 1
            self.stats.enveloped_messages += n
            dup_delay = self.latency.delay(first.src, first.dst, self.rng)
            if surge is not None:
                dup_delay *= surge
            self._schedule_delivery(batch, max(dup_delay - held, 0.0))

    def _schedule_delivery(self, batch: Tuple[Message, ...],
                           delay: float) -> None:
        arrival = self.sim.timeout(delay, name=f"deliver#{batch[0].msg_id}")
        arrival.add_callback(lambda _event, b=batch: self._deliver(b))

    def _deliver(self, batch: Tuple[Message, ...]) -> None:
        first = batch[0]
        if not self.graph.can_send(first.src, first.dst):
            self.stats.dropped_in_flight += len(batch)
            for message in batch:
                self._trace_drop(message, "in-flight")
            return
        handler = self._handlers.get(first.dst)
        if handler is None or not self.graph.node_up(first.dst):
            self.stats.dropped_dst_down += len(batch)
            for message in batch:
                self._trace_drop(message, "dst-down")
            return
        for message in batch:
            self.stats.delivered += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "msg.recv", pid=message.dst, src=message.src,
                    kind=message.kind,
                    seq=self._trace_seq.get(id(message), -1),
                    latency=self.sim.now - message.sent_at,
                )
            handler(message)

    def _trace_drop(self, message: Message, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "msg.drop", pid=message.dst, src=message.src,
                kind=message.kind, reason=reason,
                seq=self._trace_seq.get(id(message), -1),
            )
