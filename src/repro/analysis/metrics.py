"""Measurements over recorded histories.

View convergence time (E5), a pure function of a
:class:`~repro.analysis.history.History`.
"""

from __future__ import annotations

from typing import Optional

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
