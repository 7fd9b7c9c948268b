"""Reference 1SR decision procedure: search the serial orders.

This is the memoized depth-first search that ``repro.analysis.one_copy``
used to fall back on (exponential, hence its old 14-transaction limit).
It lives here as the oracle the graph checker is cross-checked against
on small random histories; nothing under ``src/`` imports it.

Two questions, one search:

* ``keep_install_order=False`` — the textbook definition: does *some*
  serial order of the committed transactions replay every read?
* ``keep_install_order=True`` — the same, over the serial orders that
  keep each object's writers in the order their versions were first
  installed on a copy.  This is what the graph checker decides.

``History`` keeps no physical op, so the install order is read from the
:class:`~repro.analysis.serialization.CopyOrder` wired on the history
before its ops were recorded — not from the index the checker reads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.history import INITIAL_VERSION, History
from repro.analysis.serialization import CopyOrder


def install_positions(history: History) -> Dict[Tuple[str, Any], int]:
    """(obj, version) -> position of its first physical ``"w"`` record
    in the history's :class:`CopyOrder`; a version never installed
    physically follows every installed one, in its writer's begin
    order."""
    (copies,) = [r for r in history.readers if isinstance(r, CopyOrder)]
    logical = [op for record in history.txns.values()
               for op in record.logical_ops]
    positions: Dict[Tuple[str, Any], int] = {}
    for position, op in enumerate(copies.ops + logical):
        if op.kind == "w" and (op.obj, op.version) not in positions:
            positions[(op.obj, op.version)] = position
    return positions


def search_serial_order(history: History,
                        keep_install_order: bool) -> Optional[List[Any]]:
    """A serial order of the committed transactions in which every read
    returns the latest preceding write (own writes included), or None if
    there is none."""
    records = history.committed()
    n = len(records)
    writes_of: List[Dict[str, Any]] = []
    for record in records:
        overlay: Dict[str, Any] = {}
        for op in record.logical_ops:
            if op.kind == "w":
                overlay[op.obj] = op.version
        writes_of.append(overlay)

    # must_follow[i]: the writers that have to be placed before i
    must_follow: List[Set[int]] = [set() for _ in records]
    if keep_install_order:
        positions = install_positions(history)
        by_obj: Dict[str, List[Tuple[int, int]]] = {}
        for index, overlay in enumerate(writes_of):
            for obj, version in overlay.items():
                by_obj.setdefault(obj, []).append(
                    (positions[(obj, version)], index))
        for writers in by_obj.values():
            writers.sort()
            for rank, (_, index) in enumerate(writers):
                must_follow[index].update(i for _, i in writers[:rank])

    def readable(index: int, state: Dict[str, Any]) -> bool:
        overlay: Dict[str, Any] = {}
        for op in records[index].logical_ops:
            if op.kind == "w":
                overlay[op.obj] = op.version
            else:
                expected = overlay.get(
                    op.obj, state.get(op.obj, INITIAL_VERSION)
                )
                if op.version != expected:
                    return False
        return True

    failed: set[Tuple[frozenset, Tuple]] = set()

    def search(used: frozenset, state: Dict[str, Any],
               order: List[int]) -> Optional[List[int]]:
        if len(order) == n:
            return order
        key = (used, tuple(sorted(state.items())))
        if key in failed:
            return None
        for index in range(n):
            if index in used or not must_follow[index] <= used:
                continue
            if not readable(index, state):
                continue
            new_state = dict(state)
            new_state.update(writes_of[index])
            result = search(used | {index}, new_state, order + [index])
            if result is not None:
                return result
        failed.add(key)
        return None

    indices = search(frozenset(), {}, [])
    if indices is None:
        return None
    return [records[i].txn for i in indices]
