"""The shared skeleton of the baseline protocols.

The baselines differ in *which copies* a logical operation touches and
*when it is allowed* — not in how a physical access is served or how a
read-one / write-all walk visits its copies.  :class:`BaselineProtocol`
owns what they share: the constructor, the copy server (strict-2PL copy
locking with before-images), the prepare/release decision protocol, and
two client loops — :meth:`~BaselineProtocol._read_one` (the nearest copy
answers, silence moves on, a refusal ends it) and
:meth:`~BaselineProtocol._write_all` (every target acknowledges or the
write aborts).  Every protocol therefore pays identical concurrency
control costs, and the benchmark comparisons isolate replica control
itself.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..cc.factory import make_cc
from ..core.errors import AccessAborted, TransactionAborted
from .base import ProtocolMetrics, ReplicaControlProtocol

REJECT_LOCK_TIMEOUT = "lock-timeout"
REJECT_NO_COPY = "no-copy"
REJECT_TXN_LOST = "txn-lost"


class BaselineProtocol(ReplicaControlProtocol):
    """Copy server, commit round and client loops for the baselines.

    A subclass chooses the copies (``logical_read`` / ``logical_write``)
    and answers ``available``; one that keeps more state extends
    ``__init__`` / ``attach`` through ``super()``.
    """

    def __init__(self, processor, placement, config, history, latency,
                 all_pids: Iterable[int]):
        self.processor = processor
        self.pid = processor.pid
        self.sim = processor.sim
        self.placement = placement
        self.config = config
        self.history = history
        self.all_pids = frozenset(all_pids)
        self._latency = latency
        self.cc = make_cc(config, self.sim, label=f"p{self.pid}.cc")
        self.metrics = ProtocolMetrics()
        self._before_images: dict = {}

    def attach(self) -> None:
        processor = self.processor
        processor.serve_spawned("read", self._serve_read)
        processor.serve_spawned("write", self._serve_write)
        processor.serve("prepare", self._serve_prepare)
        processor.serve("release", self._serve_release)
        processor.on_crash(self._on_crash)

    def _on_crash(self) -> None:
        for txn in sorted(self._before_images, key=repr):
            for obj, (value, date, version) in self._before_images[txn].items():
                self.processor.store.install(obj, value, date, version)
        self._before_images.clear()
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------

    def _serve_read(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not store.holds(obj):
            self.processor.reply(message, "read-reply",
                                 {"ok": False, "reason": REJECT_NO_COPY})
            return
        granted, cc_reason = yield from self.cc.begin_read(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        value, date = store.read(obj)
        version = store.version(obj)
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="r", obj=obj,
            copy_pid=self.pid, value=value, version=version, vpid=None,
        )
        self.processor.reply(message, "read-reply", {
            "ok": True, "value": value, "date": date, "version": version,
        })

    def _serve_write(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not store.holds(obj):
            self.processor.reply(message, "write-reply",
                                 {"ok": False, "reason": REJECT_NO_COPY})
            return
        granted, cc_reason = yield from self.cc.begin_write(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        images = self._before_images.setdefault(txn, {})
        if obj not in images:
            old_value, old_date = store.peek(obj)
            images[obj] = (old_value, old_date, store.version(obj))
        date = payload.get("date")
        if date is None:
            date = store.date(obj)
        store.write(obj, payload["value"], date, payload["version"])
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="w", obj=obj,
            copy_pid=self.pid, value=payload["value"],
            version=payload["version"], vpid=None,
        )
        self.processor.reply(message, "write-reply", {"ok": True})

    def _serve_prepare(self, message) -> None:
        # A served access holds its admission until ``finish``; only the
        # crash hook's fresh CC forgets it early — and that hook also
        # restored the before-images, so a yes would commit a lost write.
        if message.payload["txn"] in self.cc.active_txns():
            self.processor.reply(message, "prepare-reply", {"ok": True})
        else:
            self.processor.reply(message, "prepare-reply",
                                 {"ok": False, "reason": REJECT_TXN_LOST})

    def _serve_release(self, message) -> None:
        self._apply_decision(message.payload["txn"],
                             message.payload["outcome"])

    def _apply_decision(self, txn, outcome: str) -> None:
        if outcome == "abort":
            for obj, (value, date, version) in \
                    self._before_images.pop(txn, {}).items():
                self.processor.store.install(obj, value, date, version)
        else:
            written = self._before_images.pop(txn, {})
            # mirror of AccessMixin._apply_decision: a committed write
            # invalidates any lease this processor granted on the object
            if written and self.lease_table is not None:
                for obj in written:
                    self.lease_table.invalidate(obj)
        self.cc.finish(txn, outcome)

    # ------------------------------------------------------------------
    # client-side helpers
    # ------------------------------------------------------------------

    def _nearest(self, obj: str, among: Iterable[int]) -> list:
        """``obj``'s copy holders in ``among``, nearest first."""
        return self.placement.holders_by_distance(
            obj, among, lambda q: self._latency.distance(self.pid, q))

    def _fanout(self, kind: str, servers: Iterable[int], payload_for):
        """Generator: parallel RPCs; returns ``{server: payload_or_None}``
        (None = no response).  A thin veneer over the processor's shared
        scatter-gather primitive (node/transport.py), kept so the
        baselines read like the paper's pseudocode."""
        results = yield from self.processor.scatter_gather(
            servers, kind, payload_for,
            timeout=self.config.access_timeout,
        )
        return results

    def _read_one(self, obj: str, ctx, candidates: Iterable[int],
                  last_reason: str):
        """Generator: read ``obj`` at the first of ``candidates`` that
        answers.  Silence moves on to the next copy; a refusal ends the
        read.  Returns the served reply; an abort carries the refusal,
        ``"no-response"``, or ``last_reason`` if there was no candidate."""
        for server in candidates:
            self.metrics.physical_read_rpcs += 1
            if server == self.pid:
                self.metrics.local_reads += 1
            results = yield from self._fanout(
                "read", [server],
                lambda _s: {"obj": obj, "txn": ctx.txn_id,
                            "ts": ctx.timestamp})
            payload = results[server]
            if payload is None:
                last_reason = "no-response"
                continue
            if payload["ok"]:
                self.history.record_logical(
                    time=self.sim.now, txn=ctx.txn_id, kind="r", obj=obj,
                    value=payload["value"], version=payload["version"],
                )
                ctx.note_access("r", obj, server, None)
                return payload
            last_reason = payload["reason"]
            break
        self.metrics.abort("r", last_reason)
        raise AccessAborted(obj, last_reason)

    def _write_all(self, obj: str, value: Any, ctx, targets: list):
        """Generator: every copy in ``targets`` must acknowledge, or the
        write (and its transaction) aborts."""
        version = ctx.next_version()
        self.metrics.physical_write_rpcs += len(targets)
        results = yield from self._fanout(
            "write", targets,
            lambda _s: {"obj": obj, "value": value, "txn": ctx.txn_id,
                        "ts": ctx.timestamp, "version": version,
                        "date": None})
        failures = {s: p for s, p in results.items()
                    if p is None or not p["ok"]}
        for server, payload in results.items():
            if payload is not None and payload.get("ok"):
                ctx.note_access("w", obj, server, None)
        if failures:
            reason = next(
                (p["reason"] for p in failures.values() if p is not None),
                "no-response",
            )
            ctx.poison(f"write {obj!r} failed at {sorted(failures)}: {reason}")
            self.metrics.abort("w", reason)
            raise AccessAborted(obj, reason)
        self.history.record_logical(
            time=self.sim.now, txn=ctx.txn_id, kind="w", obj=obj,
            value=value, version=version,
        )

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def prepare_commit(self, ctx):
        """Plain unanimous-vote prepare (no view validation)."""
        if ctx.poisoned:
            raise TransactionAborted(ctx.txn_id, ctx.poisoned)
        if self.pid in ctx.participants and \
                ctx.txn_id not in self.cc.active_txns():
            raise TransactionAborted(
                ctx.txn_id, f"participant {self.pid} voted {REJECT_TXN_LOST}")
        remote = sorted(ctx.participants - {self.pid})
        results = yield from self._fanout(
            "prepare", remote, lambda _s: {"txn": ctx.txn_id})
        for server, payload in results.items():
            if payload is None:
                raise TransactionAborted(
                    ctx.txn_id, f"participant {server} unreachable at commit")
            if not payload["ok"]:
                raise TransactionAborted(
                    ctx.txn_id,
                    f"participant {server} voted {payload['reason']}")
        return None

    def end_transaction(self, ctx, outcome: str):
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        for server in sorted(ctx.participants):
            if server == self.pid:
                self._apply_decision(ctx.txn_id, outcome)
            else:
                self.processor.send(server, "release",
                                    {"txn": ctx.txn_id, "outcome": outcome})
        return
        yield  # pragma: no cover - never waits, but the manager ``yield from``-s it
