"""Gifford's weighted voting (quorum consensus) [G].

Every copy carries votes (its weight) and a version number.  A logical
read must assemble a *read quorum* of at least ``r`` votes and returns
the value of the highest-versioned copy in it; a logical write
assembles a *write quorum* of at least ``w`` votes and installs the
value with version ``highest + 1``.  With ``r + w > total`` every read
quorum intersects every write quorum, and with ``2w > total`` two
writes conflict somewhere — together with 2PL that yields 1SR.

Cost profile (what benchmark E3 measures): a read touches an entire
quorum — typically a weighted majority — where the paper's protocol
touches exactly one copy.  This is the protocol the paper names when
claiming fewer accesses "assuming that read requests outnumber write
requests and that fault occurrences are rare".
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .base import ReplicaControlProtocol


class QuorumProtocol(ReplicaControlProtocol):
    """Weighted read/write quorums with per-copy version numbers."""

    name = "quorum"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: per-transaction version numbers learned by reads, so writes
        #: after reads need no extra version-collect round
        self._version_cache: Dict[Any, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # quorum arithmetic
    # ------------------------------------------------------------------

    def thresholds(self, obj: str) -> Tuple[int, int]:
        """``(r, w)`` for the object: the classic majority pair
        ``w = floor(total/2) + 1``, ``r = total - w + 1``.  Then
        ``r + w = total + 1``, so every read quorum meets every write
        quorum, and ``2w > total``, so any two write quorums meet."""
        _, total = super().thresholds(obj)
        w = total // 2 + 1
        return total - w + 1, w

    # ------------------------------------------------------------------
    # logical operations
    # ------------------------------------------------------------------

    def logical_read(self, obj: str, ctx):
        need, _ = self.thresholds(obj)
        responses = yield from self._collect(
            "read", obj, need,
            lambda _s: {"obj": obj, "txn": ctx.txn_id,
                        "ts": ctx.timestamp},
            count_as="r",
        )
        if responses is None:
            self._fail(obj, "r", "no-quorum")
        best_server, best = max(
            responses.items(), key=lambda kv: (kv[1]["date"] or 0, kv[0])
        )
        for server in responses:
            ctx.note_access("r", obj, server, None)
        self._version_cache.setdefault(ctx.txn_id, {})[obj] = best["date"] or 0
        self._record_logical(ctx, "r", obj, best["value"], best["version"])
        return best["value"]

    def logical_write(self, obj: str, value: Any, ctx):
        r_need, need = self.thresholds(obj)
        cached = self._version_cache.get(ctx.txn_id, {}).get(obj)
        if cached is None:
            # No prior read in this transaction: a version-collect round
            # against a read quorum establishes the current number.
            responses = yield from self._collect(
                "read", obj, r_need,
                lambda _s: {"obj": obj, "txn": ctx.txn_id,
                            "ts": ctx.timestamp},
                count_as="aux",
            )
            if responses is None:
                self._fail(obj, "w", "no-version-quorum")
            for server in responses:
                ctx.note_access("r", obj, server, None)
            cached = max((p["date"] or 0) for p in responses.values())
        new_number = cached + 1
        version = ctx.next_version()
        responses = yield from self._collect(
            "write", obj, need,
            lambda _s: {"obj": obj, "value": value, "txn": ctx.txn_id,
                        "ts": ctx.timestamp, "version": version,
                        "date": new_number},
            count_as="w",
        )
        if responses is None:
            ctx.poison(f"write {obj!r}: no write quorum")
            self._fail(obj, "w", "no-quorum")
        for server in responses:
            ctx.note_access("w", obj, server, None)
        self._version_cache.setdefault(ctx.txn_id, {})[obj] = new_number
        self._record_logical(ctx, "w", obj, value, version)
        return None

    def end_transaction(self, ctx, outcome: str):
        self._version_cache.pop(ctx.txn_id, None)
        result = yield from super().end_transaction(ctx, outcome)
        return result

    # ------------------------------------------------------------------

    def _collect(self, kind: str, obj: str, need: int, payload_for,
                 count_as: str):
        """Assemble ``need`` votes, nearest copies first; widen the set
        on silence.  Returns ``{server: payload}`` or None."""
        remaining = self._nearest(obj, self.placement.copies(obj))
        responses: Dict[int, dict] = {}
        votes = 0
        while votes < need and remaining:
            wave, wave_votes = [], 0
            while remaining and votes + wave_votes < need:
                server = remaining.pop(0)
                wave.append(server)
                wave_votes += self.vote_weight(obj, server)
            if count_as in ("r", "aux"):
                self.metrics.physical_read_rpcs += len(wave)
                if count_as == "aux":
                    self.metrics.version_collect_rpcs += len(wave)
                else:
                    self.metrics.local_reads += sum(
                        1 for s in wave if s == self.pid)
            else:
                self.metrics.physical_write_rpcs += len(wave)
            # One wave per scatter call: the wave logic (nearest-first,
            # widen on silence) is the protocol's cost profile and must
            # stay; only the fan-out mechanics are shared.
            results = yield from self.processor.scatter(
                wave, kind, payload_for,
                timeout=self.config.access_timeout,
            ).gather()
            for server, payload in results.items():
                if payload is not None and payload["ok"]:
                    responses[server] = payload
                    votes += self.vote_weight(obj, server)
        if votes < need:
            return None
        return responses
