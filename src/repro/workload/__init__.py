"""Workloads, scenarios, and the experiment harness."""

from .failures import ScheduledNemesis
from .generator import (
    PrivateObjects,
    WorkloadGenerator,
    WorkloadSpec,
    body_for,
)
from .hunt import (
    HuntConfig,
    HuntFinding,
    HuntReport,
    hunt,
    hunt_base,
    replay_artifact,
)
from .parallel import default_workers, run_many
from .runner import (
    ExperimentResult,
    ExperimentSpec,
    build_cluster,
    run_experiment,
)
from .sweep import sweep, sweep_protocols
from .tables import render_table

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "HuntConfig",
    "HuntFinding",
    "HuntReport",
    "PrivateObjects",
    "ScheduledNemesis",
    "WorkloadGenerator",
    "WorkloadSpec",
    "body_for",
    "build_cluster",
    "default_workers",
    "hunt",
    "hunt_base",
    "render_table",
    "replay_artifact",
    "run_experiment",
    "run_many",
    "sweep",
    "sweep_protocols",
]
