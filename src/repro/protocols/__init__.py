"""Replica control protocols: the common interface and the baselines.

The paper's own protocol lives in :mod:`repro.core`; everything here is
either shared machinery or a comparison protocol from the literature.
Every protocol gets its constructor, copy server, vote-gathering walk
(read-one, write-all and the quorum waves), commit vote, crash undo
and atomic commit from
:class:`~repro.protocols.base.ReplicaControlProtocol` — the baselines
commit through 2PC, so all pay identical concurrency-control *and*
commit costs — and the baselines also its availability rule (the
reachable copies' votes against ``thresholds``).  Each baseline
subclasses it directly and keeps only which copies its operations
touch, and its ``(r, w)`` or votes where they differ from ROWA's:

* :class:`RowaProtocol` — read-one/write-ALL (no fault tolerance);
* :class:`QuorumProtocol` — Gifford's weighted voting [G];
* :class:`MajorityProtocol` — Thomas's majority consensus [T];
* :class:`MissingWritesProtocol` — Eager & Sevcik [ES] (approximation);
* :class:`NaiveViewProtocol` — the §4 strawman that Examples 1 and 2
  break (used by the anomaly reproductions).
"""

from .base import ProtocolMetrics, ReplicaControlProtocol
from .majority import MajorityProtocol
from .missing_writes import MissingWritesProtocol
from .naive_view import NaiveViewProtocol
from .quorum import QuorumProtocol
from .rowa import RowaProtocol

#: registry used by the experiment harness and benchmarks
PROTOCOLS = {
    "virtual-partitions": None,  # filled in lazily to avoid a cycle
    "rowa": RowaProtocol,
    "quorum": QuorumProtocol,
    "majority": MajorityProtocol,
    "missing-writes": MissingWritesProtocol,
    "naive-view": NaiveViewProtocol,
}


def protocol_factory(name: str):
    """Resolve a protocol name to its class."""
    if name == "virtual-partitions":
        from ..core.protocol import VirtualPartitionProtocol
        return VirtualPartitionProtocol
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
    return factory


__all__ = [
    "MajorityProtocol",
    "MissingWritesProtocol",
    "NaiveViewProtocol",
    "PROTOCOLS",
    "ProtocolMetrics",
    "QuorumProtocol",
    "ReplicaControlProtocol",
    "RowaProtocol",
    "protocol_factory",
]
