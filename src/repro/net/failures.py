"""Failure injection: scheduled topology changes under ownership claims.

The injector mutates the :class:`CommGraph` (and tells crashed
processors to kill their tasks) at exact simulated instants, which is
how the reproduction stages the paper's scenarios — e.g. Example 2's
"re-partition while two processors still hold stale views" needs the
partition to land between two specific protocol steps.  Every fault
reaches it as a :class:`~repro.net.nemesis.FaultAction` installed by
:func:`~repro.net.nemesis.apply_schedule`.

**Ownership claims.**  Several fault actions can hold one element down
at once.  Each downed element (crashed node, cut link, one-way cut)
carries the set of *actors* that downed it — one actor per applied
action, unique to the injector; an actor's heal or recover removes
only its own claim, and the element actually comes back only when the
last claim is gone.  So an action's undo never resurrects an element
another action still holds down.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, FrozenSet, Mapping, Optional

from ..sim import Simulator
from .network import Network
from .topology import CommGraph

Action = Callable[[], None]


class FailureInjector:
    """Applies topology changes at scheduled times."""

    def __init__(self, sim: Simulator, graph: CommGraph,
                 processors: Optional[Mapping[int, Any]] = None,
                 network: Optional[Network] = None):
        self.sim = sim
        self.graph = graph
        self.network = network
        self._processors: Mapping[int, Any] = processors or {}
        #: chronological record of applied failures, for reports
        self.log: list[tuple[float, str]] = []
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: one fresh claim id per applied action, never reused
        self._actors = count()
        # ownership claims: which actors currently hold each element down
        self._node_claims: dict[int, set[int]] = {}
        self._link_claims: dict[FrozenSet[int], set[int]] = {}
        self._oneway_claims: dict[tuple[int, int], set[int]] = {}

    # -- scheduling ------------------------------------------------------------

    def at(self, time: float, action: Action, label: str = "") -> None:
        """Run ``action`` at absolute simulated ``time``.

        ``time == sim.now`` is valid and schedules the action at the
        current instant (it fires on the next kernel step, after the
        currently running event completes); only strictly-past times
        are rejected.
        """
        delay = time - self.sim.now
        if delay < 0:
            raise ValueError(f"time {time} is in the past (now={self.sim.now})")

        def fire(_arg):
            self._record(label or getattr(action, "__name__", "?"))
            action()

        self.sim.call(delay, fire)

    def _record(self, label: str) -> None:
        self.log.append((self.sim.now, label))
        if self.tracer is not None:
            self.tracer.emit("fail.inject", label=label)

    # -- primitive operations ---------------------------------------------------

    def _network(self) -> Network:
        if self.network is None:
            raise RuntimeError(
                "this action perturbs the transport; construct the "
                "FailureInjector with network=..."
            )
        return self.network

    def _crash(self, pid: int, actor: int) -> None:
        self._node_claims.setdefault(pid, set()).add(actor)
        self.graph.crash_node(pid)
        processor = self._processors.get(pid)
        if processor is not None:
            processor.crash()

    def _recover(self, pid: int, actor: int) -> None:
        if _release(self._node_claims, pid, actor):
            self.graph.recover_node(pid)
            processor = self._processors.get(pid)
            if processor is not None:
                processor.recover()

    def _cut(self, a: int, b: int, actor: int) -> None:
        self._link_claims.setdefault(frozenset((a, b)), set()).add(actor)
        self.graph.cut_link(a, b)

    def _heal(self, a: int, b: int, actor: int) -> None:
        if _release(self._link_claims, frozenset((a, b)), actor):
            self.graph.heal_link(a, b)

    def _cut_oneway(self, src: int, dst: int, actor: int) -> None:
        self._oneway_claims.setdefault((src, dst), set()).add(actor)
        self.graph.cut_link_oneway(src, dst)

    def _heal_oneway(self, src: int, dst: int, actor: int) -> None:
        if _release(self._oneway_claims, (src, dst), actor):
            self.graph.heal_link_oneway(src, dst)


def _release(claims: dict, key, actor: int) -> bool:
    """Drop ``actor``'s claim on ``key``; true when no claim is left."""
    held = claims.get(key)
    if held:
        held.discard(actor)
        if held:
            return False  # another actor still holds this element down
    claims.pop(key, None)
    return True
