"""Conflict-preserving (CP) serializability of the physical history.

Two physical operations conflict when they touch the same copy and at
least one writes (§4).  Operations on one copy are totally ordered
(§3), so the conflict order is the per-copy record order.  The history
is CP-serializable iff the conflict graph over *committed* transactions
is acyclic [H] — this checks assumption A1 actually held in a run.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Callable, Dict, List, Set, Tuple

from .history import History, PhysicalOp


class CopyOrder:
    """A :class:`History` reader keeping every physical op reported from
    its construction on, in record order — so each copy's op order.
    ``History`` keeps none: a CP verdict needs one built before the run."""

    def __init__(self, history: History):
        self.history = history
        self.ops: List[PhysicalOp] = []
        history.readers += (self,)

    def read(self, fact) -> None:
        if type(fact) is PhysicalOp:
            self.ops.append(fact)


def conflict_graph(order: CopyOrder) -> Dict[Any, Set[Any]]:
    """Edges ``t1 -> t2``: a committed t1 op conflicts with and precedes
    a committed t2 op on some copy."""
    committed = {r.txn for r in order.history.committed()}
    edges: Dict[Any, Set[Any]] = {txn: set() for txn in committed}
    by_copy: Dict[Tuple[str, int], List] = defaultdict(list)
    for op in order.ops:
        if op.txn in committed:
            by_copy[(op.obj, op.copy_pid)].append(op)
    for ops in by_copy.values():
        # Execution order on a copy = time order; the stable sort keeps
        # record order for simultaneous operations.
        ops.sort(key=lambda op: op.time)
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                if earlier.txn != later.txn and (
                        earlier.kind == "w" or later.kind == "w"):
                    edges[earlier.txn].add(later.txn)
    return edges


def find_cycle(edges: Dict[Any, Set[Any]]) -> List[Any] | None:
    """A cycle in the graph as a node list, or None if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    parent: Dict[Any, Any] = {}

    for root in edges:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(edges[root], key=repr)))]
        color[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in color:
                    continue
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(edges[child], key=repr))))
                    advanced = True
                    break
                if color[child] == GREY:
                    cycle = [child, node]
                    walker = node
                    while walker != child:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def is_cp_serializable(order: CopyOrder) -> bool:
    """True iff the committed conflict graph is acyclic."""
    return find_cycle(conflict_graph(order)) is None


def topological_order(edges: Dict[Any, Set[Any]],
                      key: Callable[[Any], Any]) -> List[Any] | None:
    """A topological order that takes, among the nodes whose predecessors
    are all placed, the smallest ``key(node)`` first; None on a cycle.
    Every node must be a key of ``edges``."""
    indegree: Dict[Any, int] = dict.fromkeys(edges, 0)
    for targets in edges.values():
        for target in targets:
            indegree[target] += 1
    nodes = sorted(edges, key=key)  # stable: equal keys keep dict order
    rank = {node: index for index, node in enumerate(nodes)}
    ready = [rank[node] for node in nodes if indegree[node] == 0]  # sorted
    order: List[Any] = []
    while ready:
        node = nodes[heapq.heappop(ready)]
        order.append(node)
        for target in edges[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                heapq.heappush(ready, rank[target])
    return order if len(order) == len(edges) else None


def serial_order(order: CopyOrder) -> List[Any]:
    """A topological order of the conflict graph (an equivalent serial
    execution); raises ``ValueError`` if the history is not serializable."""
    serial = topological_order(conflict_graph(order), key=repr)
    if serial is None:
        raise ValueError("history is not CP-serializable (conflict cycle)")
    return serial
