"""The public entry point: build and run a replicated database cluster.

Typical use (see ``examples/quickstart.py``)::

    from repro import Cluster

    cluster = Cluster(processors=3, seed=42)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()

    def body(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value

    outcome = cluster.submit(1, body)
    cluster.run(until=50.0)
    print(outcome.value)           # (True, 0)
    print(cluster.check_one_copy_serializable())
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from .analysis.history import INITIAL_VERSION, History
from .cc.transactions import TransactionManager
from .core.config import ProtocolConfig
from .core.protocol import VirtualPartitionProtocol, bootstrap_partition
from .core.views import CopyPlacement
from .net.failures import FailureInjector
from .net.latency import FixedLatency, LatencyModel
from .net.network import Network
from .net.topology import CommGraph
from .node.processor import Processor
from .node.storage import StorageEngine
from .obs.metrics import MetricsRegistry
from .sim import RandomStreams, Simulator

#: protocol factory signature: (processor, placement, config, history,
#: latency, all_pids) -> ReplicaControlProtocol
ProtocolFactory = Callable[..., Any]


class Cluster:
    """A simulated distributed database under one replica control protocol."""

    def __init__(self, processors: int | Iterable[int] = 3, seed: int = 0,
                 latency: Optional[LatencyModel] = None,
                 config: Optional[ProtocolConfig] = None,
                 protocol: Optional[ProtocolFactory] = None,
                 loss_prob: float = 0.0, slow_prob: float = 0.0,
                 slow_factor: float = 5.0,
                 trace: "bool | Any" = False,
                 audit: "bool | Any" = False,
                 directory: "Optional[str | Any]" = None,
                 directory_capacity: Optional[int] = None):
        if isinstance(processors, int):
            pids = list(range(1, processors + 1))
        else:
            pids = sorted(set(processors))
        if not pids:
            raise ValueError("need at least one processor")
        self.pids = pids
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.latency = latency or FixedLatency(1.0)
        self.config = config or ProtocolConfig(delta=self.latency.bound)
        if self.config.delta < self.latency.bound:
            raise ValueError(
                f"config.delta={self.config.delta} is below the latency "
                f"bound {self.latency.bound}: the protocol's timers would "
                "misfire on legitimate delays"
            )
        self.graph = CommGraph(pids)
        self.network = Network(
            self.sim, self.graph, self.latency,
            self.streams.stream("network"),
            loss_prob=loss_prob, slow_prob=slow_prob, slow_factor=slow_factor,
        )
        self.history = History()
        self.placement = CopyPlacement()
        self.processors: Dict[int, Processor] = {
            pid: Processor(pid, self.sim, self.network, store=StorageEngine(
                pid, self.config.checkpoint_every, self.config.log_retain))
            for pid in pids
        }
        #: the one metrics surface: every component counts into its
        #: subsystem's single stats object (the first component's own),
        #: which the registry reads
        self.registry = MetricsRegistry()
        share = self.registry.share
        share("msg", self.network.stats)
        for processor in self.processors.values():
            # shared before the protocols below journal their first cells
            processor.transport = share("transport", processor.transport)
            processor.store.stats = share("storage", processor.store.stats)
        factory = protocol or VirtualPartitionProtocol
        self.protocols: Dict[int, Any] = {
            pid: factory(self.processors[pid], self.placement, self.config,
                         self.history, self.latency, frozenset(pids))
            for pid in pids
        }
        for proto in self.protocols.values():
            proto.metrics = share("protocol", proto.metrics)
        #: protocol counters of the whole cluster
        self.metrics = self.registry.sources["protocol"]
        self.tms: Dict[int, TransactionManager] = {
            pid: TransactionManager(self.protocols[pid], self.history)
            for pid in pids
        }
        if directory is not None:
            from .shard.directory import make_directory
            dir_factory = (make_directory(directory, directory_capacity)
                           if isinstance(directory, str) else directory)
            for pid, proto in self.protocols.items():
                if hasattr(proto, "directory"):
                    proto.directory = dir_factory(pid, self.placement)
        #: per-processor routing directories (protocols that have one)
        self.directories: Dict[int, Any] = {
            pid: proto.directory for pid, proto in self.protocols.items()
            if hasattr(proto, "directory")
        }
        for routing in self.directories.values():
            routing.stats = share("directory", routing.stats)
        #: the online-resharding driver, when the run has one
        self.reshard_engine = None
        self.injector = FailureInjector(self.sim, self.graph, self.processors,
                                        network=self.network)
        #: structured trace sink; None unless ``trace`` was requested
        self.tracer = None
        if trace:
            from .obs.trace import Tracer
            tracer = trace if isinstance(trace, Tracer) else Tracer(self.sim)
            self._wire_tracer(tracer)
        #: runtime invariant auditor; None unless ``audit`` was requested
        self.auditor = None
        if audit:
            from .audit import InvariantAuditor
            self.auditor = (audit if isinstance(audit, InvariantAuditor)
                            else InvariantAuditor(self.placement))
            self.auditor.tracer = self.tracer
            self.auditor.states.update(
                (pid, proto.state) for pid, proto in self.protocols.items()
                if hasattr(proto, "state"))
        # History's readers: the auditor judges each fact before the
        # trace shows it, so a violation's event precedes the fact's own
        self.history.readers = tuple(
            reader for reader in (self.auditor, self.tracer)
            if reader is not None)
        self._started = False

    def _wire_tracer(self, tracer) -> None:
        """Install ``tracer`` on every instrumented layer of the cluster."""
        self.tracer = tracer
        self.network.tracer = tracer
        self.injector.tracer = tracer
        for processor in self.processors.values():
            processor.tracer = tracer
        for proto in self.protocols.values():
            if hasattr(proto, "set_tracer"):
                proto.set_tracer(tracer)
            else:
                proto.tracer = tracer
        for tm in self.tms.values():
            tm.tracer = tracer

    # -- setup -----------------------------------------------------------------

    def place(self, obj: str, holders: Mapping[int, int] | Iterable[int],
              initial: Any = None, size: int = 1) -> None:
        """Declare a logical object, its copy holders/weights, and initial
        value (installed on every copy with the T0 version)."""
        self.placement.place(obj, holders, size=size, members=self.pids)
        self._install_initial(obj, initial, size)

    def place_many(self, assignments: Mapping[str, Mapping[int, int]
                                              | Iterable[int]],
                   initial: Any = None, size: int = 1) -> None:
        """Declare many objects at once (all-or-nothing), e.g. from a
        :meth:`~repro.shard.policy.PlacementPolicy.assign` result."""
        self.placement.place_many(assignments, size=size, members=self.pids)
        for obj in assignments:
            self._install_initial(obj, initial, size)

    def shard(self, policy: "str | Any", objects: Iterable[str],
              degree: int = 3, initial: Any = None,
              pids: Optional[Iterable[int]] = None) -> None:
        """Policy-driven setup: shard ``objects`` across the cluster.

        ``policy`` is a policy name (see :data:`repro.shard.POLICIES`)
        or a ready :class:`~repro.shard.policy.PlacementPolicy`.
        ``pids`` restricts the initial assignment to a subset of the
        cluster (the rest stay copy-free members — e.g. spare capacity
        a later reshard expands onto).
        """
        from .shard.policy import PlacementPolicy, make_policy
        if not isinstance(policy, PlacementPolicy):
            policy = make_policy(policy, degree=degree)
        over = self.pids if pids is None else sorted(set(pids))
        strangers = sorted(set(over) - set(self.pids))
        if strangers:
            raise ValueError(
                f"cannot shard over {strangers}: not cluster members")
        self.place_many(policy.assign(list(objects), over), initial=initial)

    def _install_initial(self, obj: str, initial: Any, size: int) -> None:
        for pid in self.placement.copies(obj):
            self.processors[pid].store.place(
                obj, initial=initial, date=None, size=size,
                version=INITIAL_VERSION,
            )

    def start(self, bootstrap: bool = True) -> None:
        """Attach protocols and spawn their tasks.

        ``bootstrap=True`` starts all processors jointly committed to one
        initial partition (an operator-booted system); ``False`` starts
        each alone and lets probing merge them — useful for measuring
        convergence itself.
        """
        if self._started:
            raise RuntimeError("cluster already started")
        for pid in self.pids:
            self.protocols[pid].attach()
        if bootstrap and hasattr(self.protocols[self.pids[0]], "state"):
            bootstrap_partition(list(self.protocols.values()))
        for pid in self.pids:
            self.processors[pid].start()
        self._started = True

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def submit(self, pid: int, body: Callable, retries: int = 0,
               backoff: Optional[float] = None):
        """Launch ``body`` as a transaction at processor ``pid``.

        Returns the driving process; after the run, ``process.value`` is
        ``(committed, result_or_reason)``.
        """
        tm = self.tms[pid]
        return self.sim.process(
            tm.run(body, retries=retries, backoff=backoff),
            name=f"txn@p{pid}",
        )

    def read_once(self, pid: int, obj: str):
        """Convenience: a single-read transaction at ``pid``."""
        def body(txn):
            value = yield from txn.read(obj)
            return value
        return self.submit(pid, body)

    def write_once(self, pid: int, obj: str, value: Any):
        """Convenience: a single-write transaction at ``pid``."""
        def body(txn):
            yield from txn.write(obj, value)
            return value
        return self.submit(pid, body)

    # -- results -----------------------------------------------------------

    def tm(self, pid: int) -> TransactionManager:
        return self.tms[pid]

    def session(self, pid: int, spec=None, **knobs):
        """A client session (cache + leases) fronting processor ``pid``.

        ``spec`` is a :class:`~repro.client.session.SessionSpec`;
        keyword knobs (``cache_capacity``, ``cache_policy``,
        ``lease_duration``) build one inline::

            session = cluster.session(1, cache_capacity=8,
                                      lease_duration=5.0)
        """
        from .client.session import ClientSession, SessionSpec
        if spec is None:
            spec = SessionSpec(**knobs)
        elif knobs:
            raise ValueError("pass either a spec or knobs, not both")
        session = ClientSession(self.tms[pid], self.protocols[pid], spec)
        share = self.registry.share
        session.stats = share("client", session.stats)
        if session.cache is not None:
            session.cache.stats = share("client.cache", session.cache.stats)
        if session.lease_table is not None:
            session.lease_table.stats = share("client.lease",
                                              session.lease_table.stats)
        return session

    def protocol(self, pid: int):
        return self.protocols[pid]

    def processor(self, pid: int) -> Processor:
        return self.processors[pid]

    def check_serializable(self) -> bool:
        """CP-serializability of the committed physical history."""
        from .analysis.serialization import is_cp_serializable
        return is_cp_serializable(self.history)

    def check_one_copy_serializable(self) -> bool:
        """One-copy serializability of the committed logical history."""
        from .analysis.one_copy import is_one_copy_serializable
        return is_one_copy_serializable(self.history)

    def __repr__(self) -> str:
        return (f"Cluster(n={len(self.pids)}, "
                f"protocol={next(iter(self.protocols.values())).name})")
