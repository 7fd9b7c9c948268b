"""The "missing writes" scheme of Eager & Sevcik [ES] (approximation).

Behavioural model (what the paper's comparison needs):

* **normal mode** — read-one / write-all, like the virtual partitions
  protocol without views;
* a write that cannot reach every copy still succeeds if it reaches a
  weighted majority, but the unreached copies become **missing-write**
  entries, and that fact is broadcast (the "extra logging of
  transaction information" the paper contrasts itself against —
  counted in ``metrics.transfer_units``);
* **failure mode** — while an object has missing writes, reads must
  assemble a majority and take the highest version, because a single
  copy can no longer be trusted;
* a background task pushes the missed values to the lagging copies and
  broadcasts the all-clear, returning the object to normal mode.

Faithfulness note (also in DESIGN.md): the original protocol threads
missing-write lists through transactions; broadcasting them gives the
same *access-cost profile* — one-copy reads when healthy, majority
reads plus logging after failures — which is all the paper's cost
claims (E3/E9) compare against.  There is a window of one message
delay during which a normal-mode read can miss a concurrent
failure-mode write; the scenario tests for this protocol avoid relying
on that window.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from .quorum import QuorumProtocol


class MissingWritesProtocol(QuorumProtocol):
    """ROWA when healthy; majority reads + logging once writes go missing."""

    name = "missing-writes"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: object -> copies known to have missed writes
        self._missing: Dict[str, Set[int]] = {}
        #: last version number seen per object (normal-mode write base)
        self._last_seen: Dict[str, int] = {}

    def attach(self) -> None:
        super().attach()
        self.processor.serve("mw-note", self._serve_note)
        self.processor.add_task("mw-repair", self._repair_loop)

    def thresholds(self, obj: str) -> Tuple[int, int]:
        """Quorum's ``(r, w)``, but a read needs one copy while no write
        of ``obj`` is missing (normal mode)."""
        r, w = super().thresholds(obj)
        return (r if self._missing.get(obj) else 1), w

    # ------------------------------------------------------------------
    # logical operations
    # ------------------------------------------------------------------

    def logical_read(self, obj: str, ctx):
        if self._missing.get(obj):
            # failure mode: fall back to a majority read
            value = yield from super().logical_read(obj, ctx)
            return value
        payload = yield from self._read_one(
            obj, ctx, self._nearest(obj, self.placement.copies(obj)),
            "no-copy")
        date = payload["date"] or 0
        self._last_seen[obj] = max(self._last_seen.get(obj, 0), date)
        self._version_cache.setdefault(ctx.txn_id, {})[obj] = date
        return payload["value"]

    def logical_write(self, obj: str, value: Any, ctx):
        targets = sorted(self.placement.copies(obj))
        new_number = max(
            self._last_seen.get(obj, 0),
            self._version_cache.get(ctx.txn_id, {}).get(obj, 0),
        ) + 1
        version = ctx.next_version()
        self.metrics.physical_write_rpcs += len(targets)
        results = yield from self.processor.scatter(
            targets, "write",
            lambda _s: {"obj": obj, "value": value, "txn": ctx.txn_id,
                        "ts": ctx.timestamp, "version": version,
                        "date": new_number},
            timeout=self.config.access_timeout).gather()
        reached = {s for s, p in results.items()
                   if p is not None and p.get("ok")}
        missed = set(targets) - reached
        if sum(self.vote_weight(obj, s) for s in reached) < self.thresholds(obj)[1]:
            ctx.poison(f"write {obj!r}: no majority reached")
            self._fail(obj, "w", "no-majority")
        for server in reached:
            ctx.note_access("w", obj, server, None)
        self._last_seen[obj] = new_number
        self._version_cache.setdefault(ctx.txn_id, {})[obj] = new_number
        if missed:
            self._note_missing(obj, missed, broadcast=True)
        self._record_logical(ctx, "w", obj, value, version)
        return None

    # ------------------------------------------------------------------
    # missing-write bookkeeping
    # ------------------------------------------------------------------

    def _note_missing(self, obj: str, copies: Set[int],
                      broadcast: bool) -> None:
        entry = self._missing.setdefault(obj, set())
        fresh = copies - entry
        entry |= copies
        # "extra logging of transaction information" [ES]: one log
        # record per missing copy, counted as transfer cost.
        self.metrics.transfer_units += len(fresh)
        if broadcast and fresh:
            for pid in sorted(self.all_pids - {self.pid}):
                self.processor.send(pid, "mw-note", {
                    "obj": obj, "missing": sorted(entry), "clear": False,
                })

    def _serve_note(self, message) -> None:
        obj = message.payload["obj"]
        if message.payload["clear"]:
            self._missing.pop(obj, None)
        else:
            self._note_missing(obj, set(message.payload["missing"]),
                               broadcast=False)

    def _repair_loop(self):
        """Push missed values to lagging copies; broadcast the all-clear."""
        while True:
            yield self.sim.timeout(self.config.pi)
            for obj in sorted(self._missing):
                yield from self._repair_object(obj)

    def _repair_object(self, obj: str):
        lagging = sorted(self._missing.get(obj, ()))
        if not lagging:
            return
        good = [p for p in self._nearest(obj, self.placement.copies(obj))
                if p not in lagging]
        if not good:
            return
        repair_txn = ("mw-repair", self.pid, int(self.sim.now * 1000))
        repair_ts = (self.sim.now, self.pid, 10**9)
        payload = (yield from self.processor.scatter(
            good[:1], "read",
            lambda _s: {"obj": obj, "txn": repair_txn, "ts": repair_ts},
            timeout=self.config.access_timeout).gather())[good[0]]
        if payload is None or not payload["ok"]:
            return
        self.processor.send(good[0], "release",
                            {"txn": repair_txn, "outcome": "commit"})
        pushes = yield from self.processor.scatter(
            lagging, "write",
            lambda _s: {"obj": obj, "value": payload["value"],
                        "txn": repair_txn, "ts": repair_ts,
                        "version": payload["version"],
                        "date": payload["date"]},
            timeout=self.config.access_timeout).gather()
        healed = {s for s, p in pushes.items()
                  if p is not None and p.get("ok")}
        self.metrics.transfer_units += len(healed)
        for server in healed:
            self.processor.send(server, "release",
                                {"txn": repair_txn, "outcome": "commit"})
        still = self._missing.get(obj, set()) - healed
        if still:
            self._missing[obj] = still
            return
        self._missing.pop(obj, None)
        for pid in sorted(self.all_pids - {self.pid}):
            self.processor.send(pid, "mw-note",
                                {"obj": obj, "missing": [], "clear": True})
