"""Failure injection: scheduled topology changes under ownership claims.

The injector mutates the :class:`CommGraph` (and tells crashed
processors to kill their tasks) at exact simulated instants, which is
how the reproduction stages the paper's scenarios — e.g. Example 2's
"re-partition while two processors still hold stale views" needs the
partition to land between two specific protocol steps.

**Ownership claims.**  Several fault actors can run at once — a
scripted ``*_at`` schedule and every action of a planned
:class:`~repro.net.nemesis.FaultAction` schedule.  Each downed element
(crashed node, cut link, one-way cut) carries the set of *actors* that
downed it; an actor's heal or recover removes only its own claim, and
the element actually comes back only when the last claim is gone.
Without this, a planned link-heal could silently resurrect a link a
scripted ``cut_at`` deliberately downed mid-scenario.  ``partition_at``
and ``heal_all_at`` remain authoritative: a partition rewrites the
claims of every link it touches, and ``heal_all`` force-clears all link
claims.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Mapping, Optional, Sequence

from ..sim import Simulator
from .network import Network
from .topology import CommGraph

Action = Callable[[], None]

#: the actor name used by the scripted ``*_at`` convenience schedule
SCRIPT = "script"


class FailureInjector:
    """Applies scripted topology changes at scheduled times."""

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
        # ownership claims: which actors currently hold each element down
        self._node_claims: dict[int, set[str]] = {}
        self._link_claims: dict[FrozenSet[int], set[str]] = {}
        self._oneway_claims: dict[tuple[int, int], set[str]] = {}

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

        fire.name = f"failure@{time}"  # what a kernel trace shows
        self.sim.call(delay, fire)

    def _record(self, label: str) -> None:
        self.log.append((self.sim.now, label))
        if self.tracer is not None:
            self.tracer.emit("fail.inject", label=label)

    # -- convenience actions --------------------------------------------------

    def crash_at(self, time: float, pid: int) -> None:
        """Crash processor ``pid`` at ``time`` (tasks die, volatile state lost)."""
        self.at(time, lambda: self._crash(pid), f"crash({pid})")

    def recover_at(self, time: float, pid: int) -> None:
        """Recover ``pid`` at ``time``; its protocol tasks restart."""
        self.at(time, lambda: self._recover(pid), f"recover({pid})")

    def cut_at(self, time: float, a: int, b: int) -> None:
        """Cut the ``a``–``b`` link at ``time``."""
        self.at(time, lambda: self._cut(a, b), f"cut({a},{b})")

    def heal_at(self, time: float, a: int, b: int) -> None:
        """Heal the ``a``–``b`` link at ``time``."""
        self.at(time, lambda: self._heal(a, b), f"heal({a},{b})")

    def partition_at(self, time: float,
                     blocks: Sequence[Iterable[int]]) -> None:
        """Impose a clean partition into ``blocks`` at ``time``."""
        frozen = [list(block) for block in blocks]
        self.at(time, lambda: self._partition(frozen),
                f"partition({frozen})")

    def heal_all_at(self, time: float) -> None:
        """Restore full connectivity (crashed nodes stay down) at ``time``."""
        self.at(time, self._heal_all, "heal_all")

    # -- primitive operations ---------------------------------------------------

    def _network(self) -> Network:
        if self.network is None:
            raise RuntimeError(
                "this action perturbs the transport; construct the "
                "FailureInjector with network=..."
            )
        return self.network

    def _crash(self, pid: int, actor: str = SCRIPT) -> None:
        self._node_claims.setdefault(pid, set()).add(actor)
        self.graph.crash_node(pid)
        processor = self._processors.get(pid)
        if processor is not None:
            processor.crash()

    def _recover(self, pid: int, actor: str = SCRIPT) -> None:
        claims = self._node_claims.get(pid)
        if claims:
            claims.discard(actor)
            if claims:
                return  # another actor still holds this node down
        self._node_claims.pop(pid, None)
        self.graph.recover_node(pid)
        processor = self._processors.get(pid)
        if processor is not None:
            processor.recover()

    def _cut(self, a: int, b: int, actor: str = SCRIPT) -> None:
        self._link_claims.setdefault(frozenset((a, b)), set()).add(actor)
        self.graph.cut_link(a, b)

    def _heal(self, a: int, b: int, actor: str = SCRIPT) -> None:
        key = frozenset((a, b))
        claims = self._link_claims.get(key)
        if claims:
            claims.discard(actor)
            if claims:
                return  # someone else still wants this link down
        self._link_claims.pop(key, None)
        self.graph.heal_link(a, b)

    def _cut_oneway(self, src: int, dst: int, actor: str = SCRIPT) -> None:
        self._oneway_claims.setdefault((src, dst), set()).add(actor)
        self.graph.cut_link_oneway(src, dst)

    def _heal_oneway(self, src: int, dst: int, actor: str = SCRIPT) -> None:
        key = (src, dst)
        claims = self._oneway_claims.get(key)
        if claims:
            claims.discard(actor)
            if claims:
                return
        self._oneway_claims.pop(key, None)
        self.graph.heal_link_oneway(src, dst)

    def _partition(self, blocks: Sequence[Iterable[int]]) -> None:
        # graph.partition validates the blocks (and raises) before any
        # mutation, so claims are rewritten only for an applied partition
        self.graph.partition(blocks)
        groups = [set(block) for block in blocks]
        mentioned = set().union(*groups) if groups else set()
        leftovers = set(self.graph.nodes) - mentioned
        if leftovers:
            groups.append(leftovers)
        block_of = {p: i for i, group in enumerate(groups) for p in group}
        for a in self.graph.nodes:
            for b in self.graph.nodes:
                if a < b:
                    key = frozenset((a, b))
                    if block_of[a] == block_of[b]:
                        self._link_claims.pop(key, None)
                        self._oneway_claims.pop((a, b), None)
                        self._oneway_claims.pop((b, a), None)
                    else:
                        self._link_claims[key] = {SCRIPT}

    def _heal_all(self) -> None:
        self.graph.heal_all()
        self._link_claims.clear()
        self._oneway_claims.clear()

