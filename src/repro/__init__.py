"""repro — the virtual partitions replica control protocol, reproduced.

A full implementation of El Abbadi, Skeen & Cristian, *"An Efficient,
Fault-Tolerant Protocol for Replicated Data Management"* (PODS 1985),
with every substrate it needs: a deterministic discrete-event simulator,
a failure-injectable network, per-processor runtimes with durable
storage, strict-2PL concurrency control, baseline replica control
protocols for comparison, and checkers for the paper's correctness
criterion (one-copy serializability).

Quick start::

    from repro import Cluster

    cluster = Cluster(processors=5, seed=7)
    cluster.place("account", holders=[1, 2, 3, 4, 5], initial=100)
    cluster.start()
    cluster.write_once(1, "account", 150)
    cluster.run(until=30.0)
    assert cluster.check_one_copy_serializable()
"""

from .analysis import (
    CopyOrder,
    History,
    check_one_copy,
    is_cp_serializable,
    is_one_copy_serializable,
)
from .cluster import Cluster
from .core import (
    AccessAborted,
    CopyPlacement,
    ProtocolConfig,
    TransactionAborted,
    VirtualPartitionProtocol,
    VpId,
)
from .net import (
    CommGraph,
    DistanceLatency,
    FailureInjector,
    FaultAction,
    FixedLatency,
    UniformLatency,
    apply_schedule,
)

__version__ = "1.0.0"

__all__ = [
    "AccessAborted",
    "Cluster",
    "CommGraph",
    "CopyOrder",
    "CopyPlacement",
    "DistanceLatency",
    "FailureInjector",
    "FaultAction",
    "FixedLatency",
    "History",
    "ProtocolConfig",
    "TransactionAborted",
    "UniformLatency",
    "VirtualPartitionProtocol",
    "VpId",
    "check_one_copy",
    "is_cp_serializable",
    "is_one_copy_serializable",
    "__version__",
    "apply_schedule",
]
