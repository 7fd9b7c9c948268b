"""Schedules that perturb every route of a cluster at once."""

import math

from repro import FaultAction


def on_every_route(pids, kind, value, time=0.0, hold=math.inf):
    """One ``kind`` action (``surge``, ``grey`` or ``dup``) with
    ``value`` per ordered pair of distinct ``pids``: a route joins two
    processors, so a message a processor sends itself stays untouched."""
    return [FaultAction(time, kind, (src, dst, value), hold)
            for src in pids for dst in pids if src != dst]
