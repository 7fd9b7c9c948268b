"""Network substrate: topology, latency, transport, failure injection."""

from .failures import FailureInjector
from .nemesis import (
    FaultAction,
    NemesisMix,
    apply_schedule,
    plan_crash_repair,
    plan_nemesis,
)
from .latency import (
    DistanceLatency,
    FixedLatency,
    LatencyModel,
    UniformLatency,
    ring_distances,
)
from .message import Message
from .network import Network, NetworkStats
from .topology import CommGraph

__all__ = [
    "CommGraph",
    "DistanceLatency",
    "FailureInjector",
    "FaultAction",
    "FixedLatency",
    "LatencyModel",
    "Message",
    "NemesisMix",
    "Network",
    "NetworkStats",
    "apply_schedule",
    "plan_crash_repair",
    "plan_nemesis",
    "UniformLatency",
    "ring_distances",
]
