"""The virtual partitions replica control protocol (the paper's §5).

:class:`VirtualPartitionProtocol` assembles the per-figure mixins into
one per-processor object and wires them to the processor runtime:

* Fig. 3  — shared state (:class:`~repro.core.state.ReplicaState`),
  task scheduling (here, in :meth:`attach`);
* Figs. 4–5 — :class:`~repro.core.vp_creation.CreationMixin`;
* Fig. 6  — :class:`~repro.core.vp_monitor.MonitorMixin`;
* Figs. 7–8 — :class:`~repro.core.probes.ProbesMixin`;
* Fig. 9  — :class:`~repro.core.copy_update.UpdateMixin`;
* Figs. 10–12 — :class:`~repro.core.access.AccessMixin`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..analysis.history import History
from ..net.latency import LatencyModel
from ..node.processor import Processor, window_closed
from ..protocols.base import ReplicaControlProtocol
from ..shard.directory import LocalDirectory
from .access import AccessMixin
from .config import ProtocolConfig
from .copy_update import UpdateMixin
from .ids import VpId
from .probes import ProbesMixin
from .state import ReplicaState
from .views import CopyPlacement
from .vp_creation import CreationMixin
from .vp_monitor import MonitorMixin


class VirtualPartitionProtocol(CreationMixin, MonitorMixin, ProbesMixin,
                               UpdateMixin, AccessMixin,
                               ReplicaControlProtocol):
    """One protocol instance per processor."""

    name = "virtual-partitions"

    def __init__(self, processor: Processor, placement: CopyPlacement,
                 config: ProtocolConfig, history: History,
                 latency: LatencyModel, all_pids: Iterable[int]):
        super().__init__(processor, placement, config, history, latency,
                         all_pids)
        self.state = ReplicaState(self.pid, self.sim, history,
                                  store=processor.store)
        #: client-side routing directory (Figs. 10-11 lookups); the
        #: cluster swaps in a CachedDirectory for partial-map runs.
        #: Server-side votes stay on the authoritative ``placement``.
        self.directory = LocalDirectory(placement)
        self._create_vp_process = None
        #: the key of Fig. 6's armed 3δ wait for a commit, or None
        self._commit_wait = None
        self._poisoned_txns: set = set()

    def distance(self, pid: int) -> float:
        """Expected delay to ``pid``; rule R2 reads the minimum."""
        return self._latency.distance(self.pid, pid)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install (or remove, with ``None``) a trace-event sink here and
        on the CC's lock table, rewired when a crash recreates the CC.
        Joins and departs reach the trace through ``History``."""
        self.tracer = tracer
        self._wire_cc_tracer()

    def _wire_cc_tracer(self) -> None:
        locks = getattr(self.cc, "locks", None)
        if locks is not None:
            locks.tracer = self.tracer
            locks.trace_pid = self.pid

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Register the Fig. 3 task set and the request handlers, then
        the commit backend's kinds and the crash/recover hooks.

        Only the probe loop is a task; every inbound kind is served at
        its delivery event — handlers that never wait directly (Fig. 6's
        two among them), the rest spawned: a process only if it waits.
        """
        processor = self.processor
        processor.add_task("send-probes", self.send_probes)
        processor.serve("newvp", self.monitor_newvp)
        processor.serve("commit", self.monitor_commit)
        processor.serve("probe", self.monitor_probe)
        # the Figs. 5/7 reply kinds are dropped outside their windows —
        # also before this processor has opened its first one
        processor.serve("vp-accept", window_closed)
        processor.serve("probe-ack", window_closed)
        processor.serve("reshard-gate", self._handle_reshard_gate)
        processor.serve("reshard-release", self._handle_reshard_release)
        processor.serve_spawned("read", self._handle_read)
        processor.serve_spawned("write", self._handle_write)
        processor.serve("vpread", self._handle_vpread)
        processor.serve_spawned("reshard-install",
                                self._handle_reshard_install)
        super().attach()

    def _on_crash(self) -> None:
        """The shared undo (in-doubt writes survive), then the view
        state: force-aborts, the Fig. 6 wait and the volatile state."""
        super()._on_crash()
        self._poisoned_txns.clear()
        self._wire_cc_tracer()
        self._disarm_commit_wait()
        self.state.reset_volatile()
        if self.tracer is not None:
            self.tracer.emit("proc.crash", pid=self.pid)

    def _on_recover(self) -> None:
        """Come back alone; probing will merge us with the reachable."""
        self.state.reboot()
        super()._on_recover()
        if self.tracer is not None:
            self.tracer.emit("proc.recover", pid=self.pid)

    # ------------------------------------------------------------------
    # introspection helpers used by tests and the harness
    # ------------------------------------------------------------------

    @property
    def assigned(self) -> bool:
        return self.state.assigned

    @property
    def current_partition(self) -> Optional[VpId]:
        return self.state.cur_id if self.state.assigned else None

    @property
    def view(self) -> frozenset:
        return frozenset(self.state.lview)

    def __repr__(self) -> str:
        return f"VirtualPartitionProtocol(p{self.pid}, {self.state!r})"


def bootstrap_partition(protocols: Iterable[VirtualPartitionProtocol],
                        vpid: Optional[VpId] = None) -> VpId:
    """Start all processors jointly committed to one initial partition.

    Models a system brought up by an operator in one piece, skipping the
    initial probe-driven convergence.  Copies need no initialization
    (everyone holds the initial database), so nothing is locked.
    """
    members = sorted(protocols, key=lambda p: p.pid)
    if not members:
        raise ValueError("no protocols to bootstrap")
    if vpid is None:
        vpid = VpId(1, members[0].pid)
    view = {p.pid for p in members}
    previous_map = {}
    for protocol in members:
        info = protocol._previous_info()
        previous_map[protocol.pid] = info
    for protocol in members:
        protocol.state.join(vpid, view, previous_map)
        if protocol.state.max_id < vpid:
            protocol.state.max_id = vpid
    return vpid
