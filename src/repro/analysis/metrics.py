"""Measurements over recorded histories.

Utilities the experiment reports are built from: convergence times
(E5) and real-time staleness of reads (E8).  Both are pure functions of a
:class:`~repro.analysis.history.History`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .history import History


def convergence_time(history: History, after: float) -> Optional[float]:
    """Time from ``after`` until every processor that joined anything
    post-``after`` had joined the final (highest) partition.

    Returns None if no joins happened after ``after``.
    """
    joins = [(t, pid, vpid) for t, pid, vpid, _view in history.joins
             if t >= after]
    if not joins:
        return None
    final_id = max(vpid for _t, _pid, vpid in joins)
    last = max(t for t, _pid, vpid in joins if vpid == final_id)
    return last - after


@dataclass(frozen=True)
class StaleRead:
    """A committed read that returned a value already overwritten
    (in real time) by a committed write."""

    txn: Any
    obj: str
    read_time: float
    overwritten_at: float

    @property
    def staleness(self) -> float:
        return self.read_time - self.overwritten_at


def stale_reads(history: History) -> List[StaleRead]:
    """All committed reads of values that a committed write had already
    replaced (by commit time) when the read executed.

    These are not 1SR violations — the reader serializes before the
    writer — but they quantify §4's "reading out of date values".
    """
    committed = history.committed()
    committed_ids = {r.txn for r in committed}
    # per object: committed writes ordered by commit time
    writes_by_obj: Dict[str, List[Tuple[float, Any]]] = defaultdict(list)
    for record in committed:
        for op in record.logical_ops:
            if op.kind == "w":
                writes_by_obj[op.obj].append((record.end_time, op.version))
    for entries in writes_by_obj.values():
        entries.sort()

    results: List[StaleRead] = []
    for record in committed:
        for op in record.logical_ops:
            if op.kind != "r":
                continue
            versions = writes_by_obj.get(op.obj, [])
            # the earliest committed write of a DIFFERENT version that
            # committed before this read executed
            overwrite_time = None
            seen_own = False
            for commit_time, version in versions:
                if version == op.version:
                    seen_own = True
                    continue
                if seen_own and commit_time <= op.time:
                    overwrite_time = commit_time
                    break
                if not seen_own and version != op.version \
                        and commit_time <= op.time and op.version is not None:
                    # read returned an older (pre-history) version while
                    # a write had already landed
                    if _written_before(versions, op.version, version):
                        overwrite_time = commit_time
                        break
            if overwrite_time is not None:
                results.append(StaleRead(record.txn, op.obj, op.time,
                                         overwrite_time))
    return results


def _written_before(versions, older, newer) -> bool:
    order = [v for _t, v in versions]
    if older not in order:
        return True  # initial version predates all writes
    if newer not in order:
        return False
    return order.index(older) < order.index(newer)
