"""Transactions over a replica control protocol.

The transaction manager gives each processor the classic begin /
read / write / commit interface, delegating logical operations to
whatever :class:`~repro.protocols.base.ReplicaControlProtocol` the
experiment installed; a transaction counts each logical read and write
as it enters (``ProtocolMetrics.logical_reads`` / ``logical_writes``).
Concurrency control is strict 2PL on copies — locks are acquired
inside the protocol's physical access servers and released by the
end-of-transaction decision messages — which satisfies assumption A1
(CP-serializability).

Failure semantics: any :class:`~repro.core.errors.AccessAborted` from a
logical operation aborts the whole transaction (the paper's ``signal
abort``), which the caller sees as :class:`TransactionAborted`.  A
transaction object is single-use; retries create a new transaction.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Optional

from ..analysis.history import History
from ..core.errors import AccessAborted, TransactionAborted
from .context import TransactionContext


class Transaction:
    """One client transaction; single-use."""

    def __init__(self, manager: "TransactionManager",
                 ctx: TransactionContext):
        self._manager = manager
        self.ctx = ctx
        self.finished = False

    @property
    def txn_id(self):
        return self.ctx.txn_id

    # -- operations (generators; drive with ``yield from``) -----------------

    def read(self, obj: str):
        """Logical read; aborts the transaction on failure."""
        self._check_open()
        self._manager.protocol.metrics.logical_reads += 1
        try:
            value = yield from self._manager.protocol.logical_read(
                obj, self.ctx
            )
        except AccessAborted as exc:
            yield from self._abort(f"read {obj!r}: {exc.reason}")
            raise TransactionAborted(self.txn_id, exc.reason) from exc
        return value

    def write(self, obj: str, value: Any):
        """Logical write; aborts the transaction on failure."""
        self._check_open()
        self._manager.protocol.metrics.logical_writes += 1
        try:
            yield from self._manager.protocol.logical_write(
                obj, value, self.ctx
            )
        except AccessAborted as exc:
            yield from self._abort(f"write {obj!r}: {exc.reason}")
            raise TransactionAborted(self.txn_id, exc.reason) from exc

    def commit(self):
        """Validate (rule R4) and commit; raises if validation fails."""
        self._check_open()
        if self.ctx.poisoned:
            yield from self._abort(self.ctx.poisoned)
            raise TransactionAborted(self.txn_id, self.ctx.poisoned)
        try:
            yield from self._manager.protocol.prepare_commit(self.ctx)
        except TransactionAborted as exc:
            yield from self._abort(exc.reason)
            raise
        try:
            yield from self._manager.protocol.end_transaction(
                self.ctx, "commit")
        except TransactionAborted as exc:
            # The decision was ceded to abort while votes were in
            # flight (an in-doubt participant queried the decision
            # log); the prepare round succeeded but the commit cannot.
            yield from self._abort(exc.reason)
            raise
        self.finished = True
        # finish_txn_once: a Paxos Commit recovery leader may have
        # closed the record already (same outcome, by consensus)
        self._manager.history.finish_txn_once(self.txn_id, "committed",
                                              self._now())
        if self._manager.tracer is not None:
            self._manager.tracer.emit("txn.commit", pid=self._manager.pid,
                                      txn=str(self.txn_id))

    # -- internals -----------------------------------------------------------

    def _abort(self, reason: str):
        yield from self._manager.protocol.end_transaction(self.ctx, "abort")
        self.finished = True
        self._manager.history.finish_txn_once(self.txn_id, "aborted",
                                              self._now(), reason)
        if self._manager.tracer is not None:
            self._manager.tracer.emit("txn.abort", pid=self._manager.pid,
                                      txn=str(self.txn_id), reason=reason)

    def _check_open(self) -> None:
        if self.finished:
            raise RuntimeError(f"{self.txn_id} already finished")

    def _now(self) -> float:
        return self._manager.protocol.processor.sim.now

    def __repr__(self) -> str:
        state = "finished" if self.finished else "active"
        return f"Transaction({self.txn_id}, {state})"


class TransactionManager:
    """Factory and bookkeeper for one processor's transactions."""

    def __init__(self, protocol, history: History):
        self.protocol = protocol
        self.history = history
        self.pid = protocol.processor.pid
        self._seq = count(1)
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None

    def begin(self) -> Transaction:
        """Start a new transaction rooted at this processor."""
        seq = next(self._seq)
        txn_id = (self.pid, seq)
        ctx = TransactionContext(txn_id=txn_id)
        ctx.timestamp = (self.protocol.processor.sim.now, self.pid, seq)
        self.history.begin_txn(txn_id, self.pid,
                               self.protocol.processor.sim.now)
        if self.tracer is not None:
            self.tracer.emit("txn.begin", pid=self.pid, txn=str(txn_id))
        return Transaction(self, ctx)

    def run(self, body: Callable[[Transaction], Any], retries: int = 0,
            backoff: Optional[float] = None):
        """Generator: execute ``body(txn)`` with commit and retry.

        ``body`` is a generator function receiving the transaction; it
        performs reads/writes (``yield from txn.read(...)``) and returns
        a result.  Commit is automatic.  On abort the body is retried up
        to ``retries`` times, waiting ``backoff`` between attempts.
        Returns ``(committed, result_or_reason)``.
        """
        sim = self.protocol.processor.sim
        attempts = retries + 1
        reason = "never-ran"
        for attempt in range(attempts):
            txn = self.begin()
            try:
                result = yield from body(txn)
                yield from txn.commit()
                return True, result
            except TransactionAborted as exc:
                reason = exc.reason
                if backoff and attempt + 1 < attempts:
                    yield sim.timeout(backoff)
        return False, reason
