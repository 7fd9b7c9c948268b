"""One-copy serializability (1SR) of the logical history.

The paper's correctness criterion: the committed transactions must
behave as if executed serially against a *single-copy* database
[TGGL, BGb].  Nothing here searches for that serial order.  Every read
carries the exact version token it returned and every copy's writes are
recorded in the order they were installed, so reads-from **and** version
order are data, and 1SR is a cycle test on the multiversion
serialization graph [BHG] over the committed transactions:

* ``wr`` — the writer of the version a read returned → the reader;
* ``ww`` — consecutive writers of an object, in version order;
* ``rw`` — a reader → the writer of the version that superseded what it
  read (a read of the transaction's own write adds nothing).

An object's version order is the order its committed versions were
first installed on any copy.  Acyclic ⇒ 1SR, and a topological order is
the witness — replayed here before it is returned, so the checker
verifies itself; a cycle is the counter-example, reported as named edges.

The verdict is 1SR **with respect to the installed version order**,
because that order decides which version a copy ends up holding, hence
what a later read or Update-Copies (R5) gets.  A replay that checks
reads only would accept a committed blind write installed *before* a
version it has to follow: no read notices, but the copies end in a state
no serial execution leaves.  The graph convicts that history; it never
accepts one the read-only replay rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .history import INITIAL_VERSION, History, TxnRecord
from .serialization import find_cycle, topological_order

#: a graph edge: (from txn, "wr" | "ww" | "rw", object, to txn)
Edge = Tuple[Any, str, str, Any]


@dataclass
class OneCopyResult:
    """Outcome of a 1SR check."""

    ok: bool
    witness: Optional[List[Any]] = None  # a serial order that replays, if ok
    violation: Optional[str] = None  # why not, if not ok
    cycle: Tuple[Edge, ...] = ()  # the graph cycle ``violation`` prints


def format_cycle(cycle: Sequence[Edge]) -> str:
    """``t1 -ww x→ t2 -rw x→ t1``; tuple ids print without spaces."""
    steps = "".join(f"{txn} -{kind} {obj}→ " for txn, kind, obj, _ in cycle)
    return f"{steps}{cycle[0][0]}".replace(", ", ",")


def _replay(order: Sequence[TxnRecord]) -> Optional[str]:
    """Replay transactions serially; None if every read is consistent,
    else a description of the first violation."""
    state: Dict[str, Any] = {}
    for record in order:
        overlay: Dict[str, Any] = {}
        for op in record.logical_ops:
            if op.kind == "w":
                overlay[op.obj] = op.version
                continue
            expected = overlay.get(op.obj, state.get(op.obj, INITIAL_VERSION))
            if op.version != expected:
                return (f"txn {record.txn} read {op.obj}@{op.version} but a "
                        f"one-copy database would hold {expected}")
        state.update(overlay)
    return None


def check_one_copy(history: History) -> OneCopyResult:
    """Decide 1SR of the committed history: a witness order, or why not."""
    records = {record.txn: record for record in history.committed()}
    writer: Dict[Tuple[str, Any], Any] = {}  # (obj, final version) -> txn
    reads: List[Tuple[Any, str, Any]] = []   # (txn, obj, another's version)
    for txn, record in records.items():
        own: Dict[str, Any] = {}
        for op in record.logical_ops:
            if op.kind == "w":
                own[op.obj] = op.version
            elif op.obj not in own:
                reads.append((txn, op.obj, op.version))
        writer.update(((obj, version), txn) for obj, version in own.items())

    # Recoverability screen: only the last write of a committed
    # transaction is ever there to read in a serial execution.
    for txn, obj, version in reads:
        if version != INITIAL_VERSION and (obj, version) not in writer:
            return OneCopyResult(ok=False, violation=(
                f"txn {txn} read {obj}@{version}: a non-committed write, or "
                f"one its writer overwrote before committing"))

    graph: Dict[Any, Set[Any]] = {txn: set() for txn in records}
    named: Dict[Tuple[Any, Any], Edge] = {}

    def add(source: Any, kind: str, obj: str, target: Any) -> None:
        if source != target:
            graph[source].add(target)
            named.setdefault((source, target), (source, kind, obj, target))

    latest: Dict[str, Tuple[str, Any]] = {}   # obj -> its newest version yet
    superseded_by: Dict[Tuple[str, Any], Any] = {}
    for key in sorted(writer, key=history.installed.__getitem__):
        obj = key[0]
        older = latest.get(obj, (obj, INITIAL_VERSION))
        superseded_by[older] = writer[key]
        if older in writer:
            add(writer[older], "ww", obj, writer[key])
        latest[obj] = key
    for txn, obj, version in reads:
        if (obj, version) in writer:
            add(writer[(obj, version)], "wr", obj, txn)
        if (obj, version) in superseded_by:
            add(txn, "rw", obj, superseded_by[(obj, version)])

    # ties by commit time: the common witness is still commit order
    witness = topological_order(graph, key=lambda txn: (
        records[txn].end_time, records[txn].begin_time))
    if witness is None:
        nodes = find_cycle(graph)
        cycle = tuple(named[pair] for pair in zip(nodes, nodes[1:]))
        return OneCopyResult(ok=False, cycle=cycle,
                             violation=format_cycle(cycle))
    failure = _replay([records[txn] for txn in witness])
    if failure is not None:
        raise AssertionError(f"acyclic graph, but its order fails: {failure}")
    return OneCopyResult(ok=True, witness=witness)


def is_one_copy_serializable(history: History) -> bool:
    """Boolean form of :func:`check_one_copy`."""
    return check_one_copy(history).ok
