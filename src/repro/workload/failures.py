"""Failure scripts as plain data: picklable ``ExperimentSpec.failures``
callbacks.  Specs cross a process boundary in ``run_many``, so a script
is an object holding its schedule, never a closure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..net.nemesis import FaultAction, apply_schedule


@dataclass
class ScheduledNemesis:
    """A planned fault schedule as a picklable ``failures`` callback."""

    actions: Tuple[FaultAction, ...]

    def __call__(self, cluster) -> None:
        apply_schedule(cluster.injector, self.actions)


@dataclass
class ScriptedFailures:
    """Partitions, one heal, crashes and recoveries at fixed times."""

    #: ``(time, blocks)`` pairs
    partitions: Sequence = ()
    heal_at: Optional[float] = None
    #: ``(time, pid)`` pairs
    crashes: Sequence = ()
    recovers: Sequence = ()

    def __call__(self, cluster) -> None:
        for when, blocks in self.partitions:
            cluster.injector.partition_at(when, blocks)
        if self.heal_at is not None:
            cluster.injector.heal_all_at(self.heal_at)
        for when, pid in self.crashes:
            cluster.injector.crash_at(when, pid)
        for when, pid in self.recovers:
            cluster.injector.recover_at(when, pid)
