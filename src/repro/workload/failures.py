"""Fault schedules as plain data: a picklable ``ExperimentSpec.failures``
callback.  Specs cross a process boundary in ``run_many``, so a schedule
is an object holding its actions, never a closure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..net.nemesis import FaultAction, apply_schedule


@dataclass
class ScheduledNemesis:
    """A fault schedule as a picklable ``failures`` callback."""

    actions: Tuple[FaultAction, ...]

    def __call__(self, cluster) -> None:
        apply_schedule(cluster.injector, self.actions)
