"""Tunable protocol parameters.

Collects the paper's constants (δ, π) and the §6 optimization switches
in one validated place, so experiments can sweep them and ablations can
flip them independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..node.storage.engine import CHECKPOINT_EVERY

#: Update-Copies reads every copy in the view (Fig. 9 as written).
INIT_READ_ALL = "read-all"
#: Update-Copies reads one copy chosen via previous-partition info (§6).
INIT_PREVIOUS = "previous"

#: Recovery ships the whole object value.
CATCHUP_FULL = "full-copy"
#: Recovery ships only the write-log entries the copy missed (§6).
CATCHUP_LOG = "log"


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of the virtual partition protocol.

    ``delta`` is δ — the bound on one-way message delay; the protocol's
    2δ/3δ waits and the liveness bound Δ = π + 8δ derive from it.
    ``pi`` is π — the probe period; it must exceed 2δ because Fig. 7
    spends 2δ of each period collecting acknowledgements.
    """

    delta: float = 1.0
    pi: float = 10.0
    #: retry a failed physical read at the next-nearest copy before
    #: aborting (the parenthetical in rule R2)
    read_retry: bool = False
    #: partition initialization strategy (Fig. 9 vs §6 optimization)
    init_strategy: str = INIT_READ_ALL
    #: what recovery transfers: whole values or missed log entries (§6)
    catchup: str = CATCHUP_FULL
    #: skip initialization entirely when a partition is a pure split-off
    #: of its members' common previous partition (§6)
    split_off_fastpath: bool = False
    #: use the weakened rule R4 for 2PL (§6 conditions (1)–(3)) instead
    #: of aborting every transaction on any view change
    weakened_r4: bool = False
    #: how long a physical access may wait for a copy lock before the
    #: transaction gives up (deadlock breaking), in multiples of delta
    lock_timeout_deltas: float = 20.0
    #: timeout for any single remote physical access, in multiples of
    #: delta (one message each way = 2δ, plus server-side lock waiting)
    access_timeout_deltas: float = 24.0
    #: concurrency control protocol (assumption A1): strict two-phase
    #: locking ("2pl") or strict timestamp ordering ("tso")
    cc: str = "2pl"
    #: atomic-commit backend: presumed-abort two-phase commit ("2pc",
    #: the classic blocking protocol) or Gray & Lamport's Paxos Commit
    #: ("paxos", non-blocking past any single crash) — see repro.commit
    commit_backend: str = "2pc"
    #: optional per-processor probe phase offset (pid -> delay before the
    #: first probe round).  Real failure detectors are not synchronized;
    #: a processor with a large phase is "slow to detect" failures (§4's
    #: stale-read discussion).  None = everyone probes immediately.
    probe_phase: Optional[Callable[[int], float]] = None
    #: model time one WAL append costs (a physical write journalling its
    #: record before acknowledging); 0 = free, as the paper assumes
    storage_append_cost: float = 0.0
    #: model time one *forced* sync costs — charged at the 2PC
    #: force-write points: the participant's prepare record, the
    #: coordinator's decision-log entry before any decide leaves, and
    #: the durable ``max-id`` bump at partition creation
    storage_sync_cost: float = 0.0
    #: a storage engine's checkpoint interval; it costs no model time
    checkpoint_every: int = CHECKPOINT_EVERY
    #: §6 write-log entries a copy keeps at a checkpoint (None = all; no log unless catchup "log")
    log_retain: Optional[int] = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive: {self.delta}")
        if self.pi <= 2 * self.delta:
            raise ValueError(
                f"probe period pi={self.pi} must exceed 2*delta={2 * self.delta} "
                "(Fig. 7 spends 2 delta collecting acks each period)"
            )
        if self.init_strategy not in (INIT_READ_ALL, INIT_PREVIOUS):
            raise ValueError(f"unknown init_strategy {self.init_strategy!r}")
        if self.catchup not in (CATCHUP_FULL, CATCHUP_LOG):
            raise ValueError(f"unknown catchup {self.catchup!r}")
        if self.lock_timeout_deltas <= 0 or self.access_timeout_deltas <= 0:
            raise ValueError("timeouts must be positive")
        if self.cc not in ("2pl", "tso"):
            raise ValueError(f"unknown concurrency control {self.cc!r}")
        if self.commit_backend not in ("2pc", "paxos"):
            raise ValueError(
                f"unknown commit backend {self.commit_backend!r}")
        if self.storage_append_cost < 0 or self.storage_sync_cost < 0:
            raise ValueError("storage costs must be non-negative")
        if self.storage_sync_cost > self.delta:
            raise ValueError(
                f"storage_sync_cost={self.storage_sync_cost} must not "
                f"exceed delta={self.delta}: the 2delta/3delta protocol "
                "timers budget one forced write per message round"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0: {self.checkpoint_every}")
        if self.log_retain is not None and self.log_retain < 1:
            raise ValueError(
                f"log_retain must be None or >= 1: {self.log_retain}")

    # -- derived constants -------------------------------------------------

    @property
    def timer_slack(self) -> float:
        """Tie-breaking slack added to protocol timers.

        "Delivered within the time limit" (§3) means delay ≤ δ, so a
        reply to a message sent now can arrive at *exactly* now + 2δ —
        and a timer set to a bare 2δ would fire first and declare the
        sender dead.  A small ε > 0 makes the deadline inclusive.
        """
        return 1e-3 * self.delta

    @property
    def invite_wait(self) -> float:
        """Fig. 5 line 5: the initiator collects accepts for 2δ.

        Plus one forced-write budget: an acceptor durably bumps its
        ``max-id`` before its acceptance leaves (see vp_monitor), so
        with a nonzero sync cost a bare 2δ window would systematically
        exclude correct acceptors.
        """
        return 2 * self.delta + self.storage_sync_cost + self.timer_slack

    @property
    def commit_wait(self) -> float:
        """Fig. 6 line 9: an acceptor waits 3δ for the commit.

        Plus one forced-write budget: the timer starts when the
        invitation is processed, but the acceptance only *leaves* after
        the acceptor's durable max-id bump (see vp_monitor), so the
        initiator's commit is up to one sync later than a bare 3δ
        allows.  Without the budget, an acceptor whose invitation
        arrived quickly times out just before the commit lands and
        starts a fresh creation — re-forming the same view every round.
        """
        return 3 * self.delta + self.storage_sync_cost + 2 * self.timer_slack

    @property
    def probe_ack_wait(self) -> float:
        """Fig. 7 line 11: 2δ for probe acknowledgements."""
        return 2 * self.delta + self.timer_slack

    @property
    def liveness_bound(self) -> float:
        """Δ = π + 8δ (§5): view convergence bound after a clique forms."""
        return self.pi + 8 * self.delta

    @property
    def lock_timeout(self) -> float:
        return self.lock_timeout_deltas * self.delta

    @property
    def access_timeout(self) -> float:
        return self.access_timeout_deltas * self.delta
