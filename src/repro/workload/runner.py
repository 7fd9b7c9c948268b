"""The experiment harness: one protocol, one workload, one failure script.

Drives an open-loop client at every processor, collects protocol and
network counters, and computes the derived quantities the paper's
claims are stated in: physical accesses per logical operation, messages
per committed transaction, abort rates, and availability.
"""

from __future__ import annotations

import dataclasses
import time
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Tuple

from ..analysis.one_copy import check_one_copy
from ..client.session import SessionSpec
from ..cluster import Cluster
from ..core.config import ProtocolConfig
from ..net.latency import LatencyModel
from ..node.processor import SPAWN_SLACK
from ..obs.metrics import MetricsSnapshot, summarize
from ..protocols import protocol_factory
from ..shard.reshard import ReshardAction
from .generator import WorkloadGenerator, WorkloadSpec, body_for

#: message kinds on the transaction path (Figs. 10-12 + the atomic
#: commit backends: 2PC's vote round and Paxos Commit's px-* consensus
#: traffic).  The complement — probes, view creation, copy update — is
#: background maintenance whose volume scales with cluster size and
#: run length, not with committed work; scaling claims must separate
#: the two.
TXN_MESSAGE_KINDS = frozenset({
    "read", "read-reply", "write", "write-reply",
    "prepare", "prepare-reply", "release",
    "txn-status", "txn-status-reply",
    "px-accept", "px-accepted",
    "px-p1", "px-p1-reply", "px-p2", "px-p2-reply",
})


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs."""

    protocol: str = "virtual-partitions"
    processors: int = 5
    objects: int = 10
    copies_per_object: Optional[int] = None  # None = full replication
    seed: int = 0
    duration: float = 400.0
    grace: float = 60.0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    latency: Optional[LatencyModel] = None
    config: Optional[ProtocolConfig] = None
    #: callback(cluster) scheduling failures before the run starts
    failures: Optional[Callable[[Cluster], None]] = None
    retries: int = 0
    check: bool = False  # run the 1SR checker afterwards
    trace: bool = False  # collect a structured event trace (cluster.tracer)
    audit: bool = False  # hook in the runtime invariant auditor
    #: concurrent clients per processor (>1 overlaps same-tick fan-outs)
    clients: int = 1
    #: fixed transaction count per client (None = open loop until
    #: ``duration``); fixed counts make paired runs attempt identical work
    txns_per_client: Optional[int] = None
    #: optional per-client object pool: (pid, client_index) -> object
    #: names that client draws from (None = every client uses all objects)
    objects_for: Optional[Callable[[int, int], Any]] = None
    #: placement policy name (see :data:`repro.shard.POLICIES`); None =
    #: the legacy contiguous-ring layout.  ``copies_per_object`` is the
    #: replication degree in both cases.
    placement: Optional[str] = None
    #: directory kind routing accesses ("local"/"cached"); None = local
    directory: Optional[str] = None
    #: cache capacity for the "cached" directory (None = its default)
    directory_capacity: Optional[int] = None
    #: atomic-commit backend override ("2pc"/"paxos"); None = whatever
    #: ``config`` says (itself defaulting to "2pc")
    commit_backend: Optional[str] = None
    #: open-loop load: arrivals fire on the Poisson clock regardless of
    #: service time (each spawns a worker), so latency includes
    #: queueing.  False (default) is the historical closed loop —
    #: rng-identical to the pre-session driver.
    open_loop: bool = False
    #: client-tier knobs (cache + leases); None = no session tier, the
    #: byte-identical default path
    session: Optional[SessionSpec] = None
    #: online placement changes: a tuple of :class:`~repro.shard.
    #: reshard.ReshardAction`.  Requires ``placement``; the pids
    #: the actions add are held out of the initial assignment
    #: and joined live by the migration engine.  None = no reshard
    #: machinery is constructed at all (the byte-identical default).
    reshard: Optional[Tuple[ReshardAction, ...]] = None


def _bare(hint):
    """``X`` for an ``Optional[X]`` annotation; anything else as is."""
    if typing.get_origin(hint) is typing.Union:
        (hint,) = [arg for arg in typing.get_args(hint)
                   if arg is not type(None)]
    return hint


def with_paths(obj, values: Mapping[str, Any]):
    """``obj`` with every dotted field path in ``values`` replaced
    (``{"retries": 2, "workload.read_fraction": 0.5}``).

    This is the one knob setter: sweep axes and CLI flags both name
    spec fields this way.  A nested dataclass is rebuilt once from all
    of its paths — starting from its defaults when the field is None —
    so its validation sees only the final combination.
    """
    hints = typing.get_type_hints(type(obj))
    direct: dict = {}
    nested: dict = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        if head not in hints:
            raise AttributeError(
                f"{type(obj).__name__} has no field {head!r}")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        current = getattr(obj, head)
        if current is None:
            cls = _bare(hints[head])
            if not dataclasses.is_dataclass(cls):
                raise AttributeError(
                    f"{type(obj).__name__}.{head} has no fields")
            current = cls()
        direct[head] = with_paths(current, sub)
    return replace(obj, **direct)


#: spec fields that hold callables — nothing a file can replay
_CALLABLES = ("latency", "failures", "objects_for")


def spec_to_plain(spec: ExperimentSpec) -> dict:
    """``spec`` as JSON-ready plain data — what a repro artifact pins.

    A spec carrying a callable is refused; a failure script travels
    separately, as its action list.
    """
    carried = [name for name in _CALLABLES
               if getattr(spec, name) is not None]
    if spec.config is not None and spec.config.probe_phase is not None:
        carried.append("config.probe_phase")
    if carried:
        raise ValueError(f"spec is not replayable plain data: it carries "
                         f"{', '.join(carried)}")
    plain = dataclasses.asdict(spec)
    for name in _CALLABLES:
        del plain[name]
    return plain


#: dotted spec paths of knobs since removed, each with the default it
#: had: old artifacts still pin them.  Carrying that default, the key is
#: dropped on load; any other value names a run that no longer exists.
_RETIRED_KEYS = {
    "config.batch_window": (0.0, "transport batching was removed in PR 21"),
    "reshard.guarded": (True, "the unguarded reshard flip was removed; it "
                              "lives on only as a test-side mutant"),
}


def _from_plain(hint, value, prefix=""):
    hint = _bare(hint)
    if value is None:
        return None
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        # an absent key is a knob added after the artifact was written:
        # it takes the dataclass default
        fields = {}
        for name, item in value.items():
            path = prefix + name
            if path in _RETIRED_KEYS:
                default, why = _RETIRED_KEYS[path]
                if item != default:
                    raise ValueError(f"{path}={item!r}: {why}; this "
                                     "artifact cannot be replayed")
                continue
            fields[name] = _from_plain(hints.get(name), item, f"{path}.")
        return hint(**fields)
    if typing.get_origin(hint) is tuple:
        return tuple(_from_plain(typing.get_args(hint)[0], item, prefix)
                     for item in value)
    return value


def spec_from_plain(data: Mapping[str, Any]) -> ExperimentSpec:
    """Inverse of :func:`spec_to_plain`: nested dicts and lists go back
    to the dataclasses and tuples the field types name."""
    return _from_plain(ExperimentSpec, data)


@dataclass
class ExperimentResult:
    """Raw counters + derived metrics from one run."""

    spec: ExperimentSpec
    committed: int
    aborted: int
    metrics: Any
    network: dict
    one_copy_ok: Optional[bool]  # None = ``spec.check`` was off
    cluster: Optional[Cluster]
    #: the cluster's registry read at the end of the run
    registry: Optional[MetricsSnapshot] = None
    #: the 1SR cycle as text; None unless ``one_copy_ok`` is False
    one_copy_violation: Optional[str] = None
    #: kernel events dispatched during the run — deterministic for a
    #: seeded spec, so it participates in serial/parallel equality
    events_dispatched: int = 0
    #: wall-clock seconds spent inside ``cluster.run`` — NOT
    #: deterministic, deliberately excluded from :meth:`fingerprint`
    wall_seconds: float = 0.0
    #: runtime invariant violations (as plain dicts, so results cross
    #: process boundaries); empty unless ``spec.audit`` was set
    audit_violations: tuple = ()

    @property
    def events_per_sec(self) -> float:
        """Simulated events dispatched per wall-clock second."""
        return (self.events_dispatched / self.wall_seconds
                if self.wall_seconds else 0.0)

    def fingerprint(self) -> dict:
        """Every deterministic output of the run, as plain data.

        Two runs of the same spec — serial or parallel, this kernel or
        the last one — must produce equal fingerprints; wall-clock and
        the live cluster are excluded because they legitimately differ.
        """
        metrics = self.metrics
        if dataclasses.is_dataclass(metrics):
            metrics = dataclasses.asdict(metrics)
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "one_copy_ok": self.one_copy_ok,
            "one_copy_violation": self.one_copy_violation,
            "metrics": metrics,
            "network": dict(self.network),
            "events_dispatched": self.events_dispatched,
            "registry": (self.registry.snapshot()
                         if self.registry is not None else None),
            "audit_violations": [dict(v) for v in self.audit_violations],
        }

    @property
    def attempted(self) -> int:
        return self.committed + self.aborted

    @property
    def commit_rate(self) -> float:
        return self.committed / self.attempted if self.attempted else 0.0

    @property
    def reads_per_logical_read(self) -> float:
        """Physical accesses per logical read — the paper's headline
        efficiency metric (1.0 for read-one protocols)."""
        m = self.metrics
        data_reads = m.physical_read_rpcs - m.version_collect_rpcs
        return data_reads / m.logical_reads if m.logical_reads else 0.0

    @property
    def writes_per_logical_write(self) -> float:
        m = self.metrics
        return (m.physical_write_rpcs / m.logical_writes
                if m.logical_writes else 0.0)

    @property
    def accesses_per_operation(self) -> float:
        """Physical accesses per logical operation over the whole mix."""
        m = self.metrics
        ops = m.logical_reads + m.logical_writes
        total = m.physical_read_rpcs + m.physical_write_rpcs
        return total / ops if ops else 0.0

    @property
    def messages_per_committed_txn(self) -> float:
        return (self.network["sent"] / self.committed
                if self.committed else float("inf"))

    @property
    def txn_messages(self) -> int:
        """Messages on the transaction path only (no probe/view traffic)."""
        by_kind = self.network.get("by_kind", {})
        return sum(count for kind, count in by_kind.items()
                   if kind in TXN_MESSAGE_KINDS)

    @property
    def txn_messages_per_committed_txn(self) -> float:
        """The scaling claim's metric: transaction-path messages per
        commit.  Tracks the replication degree; background maintenance
        (which *does* grow with cluster size) is excluded."""
        return (self.txn_messages / self.committed
                if self.committed else float("inf"))

    @property
    def batch_occupancy(self) -> float:
        # read only by ledger/metrics.py:79 and leaves with that row
        return 1.0

    # -- client-tier views (latency SLO + session efficiency) ----------------

    def latency_summary(self) -> dict:
        """Percentile summary of client-observed program latency.

        ``client.txn_latency`` measures completion − arrival per
        committed program (queueing included under open loop, zero for
        locally-served programs); protocol-only runs fall back to the
        history-derived ``txn.latency`` service times.
        """
        if self.registry is None:
            return {"count": 0}
        histograms = self.registry.snapshot()["histograms"]
        for name in ("client.txn_latency", "txn.latency"):
            summary = histograms.get(name)
            if summary and summary.get("count"):
                return summary
        return {"count": 0}

    @property
    def latency_p50(self) -> float:
        return self.latency_summary().get("p50", 0.0)

    @property
    def latency_p99(self) -> float:
        return self.latency_summary().get("p99", 0.0)

    def _client_counter(self, name: str) -> int:
        if self.registry is None:
            return 0
        return self.registry.snapshot()["counters"].get(name, 0)

    @property
    def local_read_fraction(self) -> float:
        """Reads served without a protocol transaction (cache + lease)."""
        reads = self._client_counter("client.reads")
        if not reads:
            return 0.0
        return (self._client_counter("client.lease_reads")
                + self._client_counter("client.cache_reads")) / reads

    @property
    def messages_per_client_program(self) -> float:
        """Transaction-path messages per *committed client program*.

        With a session tier, locally-served programs commit without a
        protocol transaction, so this is the cost metric that makes
        session cells comparable to the no-session baseline (whose
        programs and protocol transactions coincide).
        """
        programs = self._client_counter("client.programs_committed")
        denominator = programs or self.committed
        return (self.txn_messages / denominator
                if denominator else float("inf"))


def build_cluster(spec: ExperimentSpec) -> Cluster:
    """Construct (but do not run) the cluster an ExperimentSpec describes."""
    config = spec.config
    if spec.commit_backend is not None:
        config = replace(config or ProtocolConfig(),
                         commit_backend=spec.commit_backend)
    cluster = Cluster(
        processors=spec.processors, seed=spec.seed,
        latency=spec.latency, config=config,
        protocol=protocol_factory(spec.protocol),
        trace=spec.trace,
        audit=spec.audit,
        directory=spec.directory,
        directory_capacity=spec.directory_capacity,
    )
    pids = cluster.pids
    copies = spec.copies_per_object or len(pids)
    if not 1 <= copies <= len(pids):
        raise ValueError(f"copies_per_object out of range: {copies}")
    if spec.placement is None:
        if spec.reshard:
            raise ValueError("reshard requires a placement policy")
        for index in range(spec.objects):
            holders = [pids[(index + k) % len(pids)] for k in range(copies)]
            cluster.place(f"o{index}", holders=holders, initial=0)
    elif spec.reshard:
        from ..shard import ReshardEngine, object_names
        from ..shard.policy import make_policy
        # None = full replication of the initial ring, which holds out
        # every pid a reshard adds
        joining = {pid for action in spec.reshard for pid in action.add}
        degree = spec.copies_per_object or len(set(pids) - joining)
        policy = make_policy(spec.placement, degree=degree)
        names = object_names(spec.objects)
        engine = ReshardEngine(cluster, policy, names, spec.reshard)
        # the added pids start copy-free: the initial placement covers
        # only the base ring, and the engine grows it live
        cluster.shard(policy, names, initial=0, pids=engine.base_pids)
        engine.enable()
        cluster.reshard_engine = engine
        cluster.registry.share("reshard", engine.stats)
    else:
        from ..shard import object_names
        cluster.shard(spec.placement, object_names(spec.objects),
                      degree=copies, initial=0)
    return cluster


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one experiment and gather its results."""
    cluster = build_cluster(spec)
    cluster.start()
    if spec.failures is not None:
        spec.failures(cluster)
    objects = [f"o{i}" for i in range(spec.objects)]

    if spec.clients < 1:
        raise ValueError(f"clients must be >= 1: {spec.clients}")
    # one sample per committed program: completion - arrival (queueing
    # included under the open loop)
    latencies = cluster.registry.samples.setdefault("client.txn_latency", [])
    for pid in cluster.pids:
        for client in range(spec.clients):
            # client 0 keeps the original stream/tag names so existing
            # single-client runs stay byte-identical under one seed
            suffix = "" if client == 0 else f"c{client}"
            pool = (objects if spec.objects_for is None
                    else list(spec.objects_for(pid, client)))
            generator = WorkloadGenerator(
                spec.workload, pool,
                cluster.streams.stream(f"workload-p{pid}{suffix}"),
            )
            session = None
            if spec.session is not None and spec.session.enabled:
                session = cluster.session(pid, spec.session)
            cluster.sim.process(
                _client(cluster, pid, generator, spec, tag=f"p{pid}{suffix}",
                        session=session, latencies=latencies),
                name=f"client@p{pid}{suffix}",
            )

    wall_start = time.perf_counter()
    cluster.run(until=spec.duration + spec.grace)
    wall_seconds = time.perf_counter() - wall_start

    committed = len(cluster.history.committed())
    aborted = len(cluster.history.aborted())
    one_copy_ok = one_copy_violation = None
    if spec.check:
        verdict = check_one_copy(cluster.history)
        one_copy_ok, one_copy_violation = verdict.ok, verdict.violation
    audit_violations: tuple = ()
    if cluster.auditor is not None:
        cluster.auditor.finalize()
        audit_violations = tuple(
            v.to_dict() for v in cluster.auditor.violations
        )
    return ExperimentResult(
        spec=spec,
        committed=committed,
        aborted=aborted,
        metrics=cluster.metrics,
        network=cluster.network.stats.snapshot(),
        one_copy_ok=one_copy_ok,
        one_copy_violation=one_copy_violation,
        cluster=cluster,
        registry=_final_snapshot(cluster),
        events_dispatched=cluster.sim.dispatched,
        wall_seconds=wall_seconds,
        audit_violations=audit_violations,
    )


def _final_snapshot(cluster: Cluster) -> MetricsSnapshot:
    """``cluster.registry`` read once, at the end of the run, with the
    outcomes no component counts: dispatches, transaction outcomes and
    service times, the write-log entries still held, and violations."""
    history = cluster.history
    committed = history.committed()
    snapshot = cluster.registry.snapshot()
    counters = snapshot["counters"]
    counters["sim.dispatched"] = cluster.sim.dispatched
    counters["txn.committed"] = len(committed)
    counters["txn.aborted"] = len(history.aborted())
    if cluster.auditor is not None:
        counters["audit.violations"] = len(cluster.auditor.violations)
    snapshot["gauges"]["storage.retained_entries"] = sum(
        processor.store.retained_entries()
        for processor in cluster.processors.values())
    snapshot["histograms"]["txn.latency"] = summarize(
        [record.end_time - record.begin_time for record in committed
         if record.end_time is not None])
    return MetricsSnapshot((kind, dict(sorted(values.items())))
                           for kind, values in snapshot.items())


def _client(cluster: Cluster, pid: int, generator: WorkloadGenerator,
            spec: ExperimentSpec, tag: str, session, latencies: list):
    """One client: Poisson arrivals until the duration elapses, or for
    exactly ``spec.txns_per_client`` transactions when that is set.

    Closed loop (default): each arrival waits for the previous program
    to finish — think-time load, rng- and event-identical to the
    historical driver (the golden-trace pin covers it).  Open loop
    (``spec.open_loop``): arrivals fire on the interarrival clock
    regardless of service time, each spawning a worker, so the latency
    samples include queueing.  Both loops draw interarrival-then-
    program per transaction, keeping the two modes draw-for-draw
    identical on one seed.
    """
    sim = cluster.sim
    tm = cluster.tm(pid)
    backoff = 2 * cluster.config.delta

    def run_one(index, program, arrival):
        if session is not None:
            committed, _ = yield from session.run_program(
                program, tag=f"{tag}t{index}", retries=spec.retries,
                backoff=backoff)
        else:
            body = body_for(program, tag=f"{tag}t{index}")
            committed, _ = yield from tm.run(body, retries=spec.retries,
                                             backoff=backoff)
        if committed:
            latencies.append(sim.now - arrival)

    #: the open loop's workers, finished ones pruned as Processor.spawn does
    workers: list = []
    prune_at = SPAWN_SLACK
    index = 0
    while (index < spec.txns_per_client if spec.txns_per_client is not None
           else sim.now < spec.duration):
        yield sim.timeout(generator.next_interarrival())
        if spec.txns_per_client is None and sim.now >= spec.duration:
            break
        # draw order matters: the interarrival, then the program —
        # exactly the historical sequence
        program = generator.next_program()
        if spec.open_loop:
            if len(workers) >= prune_at:
                workers[:] = [worker for worker in workers if worker.is_alive]
                prune_at = 2 * len(workers) + SPAWN_SLACK
            workers.append(sim.process(run_one(index, program, sim.now),
                                       name=f"txn@{tag}t{index}"))
        else:
            yield from run_one(index, program, sim.now)
        index += 1
    for worker in workers:
        if worker.is_alive:
            yield worker
    if session is not None:
        # write-back's flush-on-close: pending dirty entries must reach
        # the store before the client stops (open-loop stragglers past
        # the duration horizon keep their dirty values client-side)
        yield from session.drain(retries=spec.retries, backoff=backoff)
