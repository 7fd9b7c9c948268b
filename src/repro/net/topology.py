"""The dynamic communication graph — the *can-communicate* relation.

The paper's system model (§3): nodes are processors; an undirected edge
means messages between the endpoints arrive within the bound δ.  The
relation is explicitly **not** assumed transitive, so a cluster need not
be a clique (Fig. 1 is exactly such a graph).

The graph starts as a single clique (the no-failure state).  Failures
remove edges three ways: an individual *link cut*, a *node crash*
(removes all incident edges), or a *partition* (removes all inter-block
edges).  Recoveries restore them.  ``version`` increments on every
change so observers can cheaply detect staleness.

Beyond the paper's undirected model, the graph also supports
**directed** (one-way) cuts — ``a`` can still reach ``b`` while ``b``'s
messages to ``a`` vanish.  Real omission failures are frequently
asymmetric (a congested uplink, a one-way routing hole), and they are
exactly the non-transitive connectivity the protocol must survive.
``can_send`` is the directed query the transport uses; ``has_edge``
stays the *symmetric* "timely in both directions" relation, so an
asymmetric link never counts as a clique edge and a cluster containing
one is correctly reported as non-transitive.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence


def _edge(a: int, b: int) -> FrozenSet[int]:
    if a == b:
        raise ValueError(f"self-edge at {a}")
    return frozenset((a, b))


class CommGraph:
    """Mutable undirected graph over a fixed processor set."""

    def __init__(self, nodes: Iterable[int]):
        self.nodes: FrozenSet[int] = frozenset(nodes)
        if not self.nodes:
            raise ValueError("a system needs at least one processor")
        self._cut_links: set[FrozenSet[int]] = set()
        self._oneway_cuts: set[tuple[int, int]] = set()
        self._down_nodes: set[int] = set()
        self.version = 0

    # -- queries ------------------------------------------------------------

    def can_send(self, src: int, dst: int) -> bool:
        """True if a message from ``src`` can currently reach ``dst``.

        The *directed* reachability query: a one-way cut blocks only
        this direction, while an undirected cut or a crashed endpoint
        blocks both.  Asked per message: no helper calls, and the cut
        sets are probed only while non-empty.
        """
        nodes = self.nodes
        if src not in nodes or dst not in nodes:
            self._check(src)
            self._check(dst)
        down = self._down_nodes
        if src in down or dst in down:
            return False
        if src == dst:
            return True
        if self._cut_links and frozenset((src, dst)) in self._cut_links:
            return False
        return not self._oneway_cuts or (src, dst) not in self._oneway_cuts

    def has_edge(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` can currently exchange timely messages
        *in both directions* (the paper's undirected edge relation).

        An asymmetric link — one direction cut — is not an edge: the
        protocol's clique/transitivity reasoning (assumption A2) needs
        mutual timely delivery.  ``has_edge(p, p)``: ``p`` has not
        crashed.
        """
        if a == b:
            self._check(a)
            return a not in self._down_nodes
        return self.can_send(a, b) and self.can_send(b, a)

    def neighbors(self, p: int) -> set[int]:
        """Processors adjacent to ``p`` (excluding ``p`` itself)."""
        self._check(p)
        if p in self._down_nodes:
            return set()
        return {q for q in self.nodes if q != p and self.has_edge(p, q)}

    def clusters(self) -> list[set[int]]:
        """Connected components of the current graph.

        A crashed processor forms a trivial cluster by itself, matching
        the paper's modelling of crashes.
        """
        remaining = set(self.nodes)
        components = []
        while remaining:
            seed = min(remaining)  # deterministic order
            component = {seed}
            frontier = [seed]
            while frontier:
                node = frontier.pop()
                for other in self.neighbors(node):
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
            components.append(component)
            remaining -= component
        return components

    # -- mutations ------------------------------------------------------------

    def cut_link(self, a: int, b: int) -> None:
        """Sever the ``a``–``b`` link (omission failure on one route)."""
        self._check(a)
        self._check(b)
        self._cut_links.add(_edge(a, b))
        self.version += 1

    def heal_link(self, a: int, b: int) -> None:
        """Restore the ``a``–``b`` link."""
        self._check(a)
        self._check(b)
        self._cut_links.discard(_edge(a, b))
        self.version += 1

    def cut_link_oneway(self, src: int, dst: int) -> None:
        """Sever only the ``src`` → ``dst`` direction (asymmetric omission)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise ValueError(f"self-edge at {src}")
        self._oneway_cuts.add((src, dst))
        self.version += 1

    def heal_link_oneway(self, src: int, dst: int) -> None:
        """Restore the ``src`` → ``dst`` direction."""
        self._check(src)
        self._check(dst)
        self._oneway_cuts.discard((src, dst))
        self.version += 1

    def crash_node(self, p: int) -> None:
        """Take processor ``p`` down; all its edges disappear."""
        self._check(p)
        self._down_nodes.add(p)
        self.version += 1

    def recover_node(self, p: int) -> None:
        """Bring ``p`` back; its non-cut links reappear."""
        self._check(p)
        self._down_nodes.discard(p)
        self.version += 1

    def partition(self, blocks: Sequence[Iterable[int]]) -> None:
        """Cut every link between distinct blocks; heal links inside blocks.

        Blocks must be disjoint; processors not mentioned form an
        implicit final block together.
        """
        groups = [set(block) for block in blocks]
        mentioned: set[int] = set()
        for group in groups:
            overlap = mentioned & group
            if overlap:
                raise ValueError(f"blocks overlap on {sorted(overlap)}")
            mentioned |= group
        unknown = mentioned - self.nodes
        if unknown:
            raise ValueError(f"unknown processors {sorted(unknown)}")
        leftovers = set(self.nodes) - mentioned
        if leftovers:
            groups.append(leftovers)
        block_of = {p: i for i, group in enumerate(groups) for p in group}
        for a in self.nodes:
            for b in self.nodes:
                if a < b:
                    if block_of[a] == block_of[b]:
                        self._cut_links.discard(_edge(a, b))
                        self._oneway_cuts.discard((a, b))
                        self._oneway_cuts.discard((b, a))
                    else:
                        self._cut_links.add(_edge(a, b))
        self.version += 1

    # -- helpers -----------------------------------------------------------

    def _check(self, p: int) -> None:
        if p not in self.nodes:
            raise KeyError(f"unknown processor {p}")

    def __repr__(self) -> str:
        return (f"CommGraph(n={len(self.nodes)}, cut={len(self._cut_links)}, "
                f"oneway={len(self._oneway_cuts)}, "
                f"down={sorted(self._down_nodes)}, v={self.version})")
