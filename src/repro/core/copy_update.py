"""Figure 9 + §6: ``Update-Copies-in-View`` (rule R5).

After a processor joins a partition, every accessible local copy is
locked until it provably holds the most recent value of its logical
object.  Because ≺ is a legal creation order (Theorem 1'), "most
recent" is simply "largest date among the copies in the view".

Strategies (ablated by ``benchmarks/bench_init_cost.py``):

* ``read-all`` — Fig. 9 as written: read every copy in the view, keep
  the one with the largest date.
* ``previous`` — §6: each acceptor's previous partition id and the
  objects accessible there travel with the creation protocol; the
  member holding the maximal such id already has the freshest copy, so
  one read (or none, if that member is us) suffices.
* split-off fast path — when every member of the new partition comes
  from one common previous partition, copies of objects accessible
  there are already up to date: unlock with no reads at all.
* ``log`` catch-up — ship only the write-log entries the stale copy
  missed instead of the whole value (cost = entries, not object size).

Recovery reads use a dedicated ``vpread`` message served *without* the
Fig. 12 locked-set wait: with it, two holders updating the same object
would block on each other forever (each waits for the other's unlock
before answering).  They do take a short shared lock, which is exactly
condition (3) of the weakened R4: recovery never reads a copy locked
for writing.

Fig. 9's ``cobegin`` is one :class:`ReadRound`: a source answers in one
reply every object it can answer at the delivery, and each object that
must wait (for its join, or at the stable-read gate) in a reply of its
own.  Neither side holds a process unless it waits.
"""

from __future__ import annotations

from functools import partial

from ..analysis.history import CopyInstall, CopyRetire
from ..node.storage import LogTruncated
from ..node.transport import ScatterCall


def _date_newer(candidate, reference) -> bool:
    """Is ``candidate`` a strictly newer logical date than ``reference``?

    ``None`` (never written) is older than everything.
    """
    if candidate is None:
        return False
    if reference is None:
        return True
    return candidate > reference


def _decide(protocol, old_id, incarnation, reads, _results=None) -> None:
    """Fig. 9 lines 12-17 for each ``(sources, local date, answers)`` of
    ``reads`` unless a crash came first; a source not heard is silent."""
    if protocol.processor.incarnation != incarnation:
        return
    for obj, (sources, local_date, answers) in list(reads.items()):
        for source in sources:
            answers.setdefault(source, None)
        protocol._install_freshest(obj, old_id, sources, local_date, answers)


class ReadRound(ScatterCall):
    """Fig. 9's ``cobegin`` for ``(object, sources, local date)`` reads: a
    fan-out of ONE ``vpread`` per source naming every object it must
    answer, each leg registered until its source owes nothing.  An
    object is decided once all of its own sources have answered, the
    rest by the continuation at the deadline, each in a gatherer's slot."""

    def __init__(self, protocol, old_id, reads):
        self._decide = partial(_decide, protocol, old_id,
                               protocol.processor.incarnation)
        #: object -> (sources, local date, answers so far), and source ->
        #: the objects it has not answered yet, both in update order
        self._reads, self._owed = {}, {}
        for obj, sources, date in reads:
            self._reads[obj] = (sources, date, {})
            for source in sources:
                self._owed.setdefault(source, {})[obj] = None
        log = protocol.config.catchup == "log"
        request = {"v": protocol.state.cur_id, "mode": "log" if log else "full"}
        super().__init__(protocol.processor, sorted(self._owed), "vpread",
                         lambda source: {**request, "objs": {
                             obj: protocol.processor.store.date(obj)
                             if log else None for obj in self._owed[source]}},
                         timeout=protocol.config.access_timeout)
        self.then(partial(self._decide, self._reads))

    def _on_reply(self, message) -> None:
        owed, done = self._owed[message.src], []
        for obj, answer in message.payload.items():
            if obj in owed:  # else a duplicate's
                del owed[obj]
                sources, _, answers = self._reads[obj]
                answers[message.src] = answer
                if len(answers) == len(sources):
                    done.append(obj)
        if owed:
            self.processor._reply_waiters[message.reply_to] = self._on_reply
        else:  # the leg is over, and the last one ends the round
            super()._on_reply(message)
        if done and self._pending:  # else the continuation decides them
            self.sim.call(0, self._decide, {
                obj: self._reads.pop(obj) for obj in done})


class UpdateMixin:
    """Partition initialization (rule R5) with the §6 optimizations."""

    def _schedule_update_copies(self) -> None:
        """The ``schedule(Update-Copies-in-View)`` of Figs. 5 and 6 —
        Fig. 9's outer loop: every locked object at once, its reads in
        one round.  Nothing follows the paper's ``coend``, so nothing
        joins them."""
        old_id, objects = self.state.cur_id, sorted(self.state.locked)
        if not objects:
            return
        if self.tracer is not None:
            self.tracer.emit("recover.start", pid=self.pid, vpid=old_id,
                             objects=len(objects))
        self._update_objects(objects, old_id, self._split_off_fresh_objects()
                             if self.config.split_off_fastpath else ())

    def _split_off_fresh_objects(self) -> frozenset:
        """Objects provably fresh because the partition is a split-off.

        Requires every member to come from one common previous partition
        *and*, per object, every copy-holding member to have had the
        object accessible there (otherwise that copy may predate the
        previous partition and still be stale).
        """
        state = self.state
        previous_map = state.previous_map
        if not previous_map or set(previous_map) < set(state.lview):
            return frozenset()
        previous_ids = {prev for prev, _ in previous_map.values()}
        if len(previous_ids) != 1:
            return frozenset()
        fresh = set()
        for obj in state.locked:
            holders = self.placement.copies(obj) & state.lview
            if holders and all(obj in previous_map[holder][1]
                               for holder in holders):
                fresh.add(obj)
        return frozenset(fresh)

    def _update_objects(self, objects, old_id, fresh=()) -> None:
        """Fig. 9's inner loop (``fresh``: a split-off's fresh objects): no
        process but a chain tied to this processor's life — this prefix,
        one :class:`ReadRound` for all objects that need reads, then
        :meth:`_install_freshest`; the waits are :meth:`Processor.after`."""
        reads, in_doubt = [], self._in_doubt_objects()
        for obj in objects:
            if not self._update_goes_on(obj, old_id):
                continue
            if obj in in_doubt:
                # A prepared-but-undecided write sits on the local copy: its
                # date is not authoritative (the §6 fast path would serve it
                # with no reads at all) until the resolver learns the 2PC
                # outcome.  Park; R5 keeps a copy of unknown freshness locked.
                self.processor.after(self.config.delta, self._update_objects,
                                     (obj,), old_id)
                continue
            if obj in fresh:
                # §6: pure split-off — the copy is known fresh already.
                self.state.unlock_object(obj)
                self.metrics.recoveries += 1
                if self.tracer is not None:
                    self.tracer.emit("recover.fresh", pid=self.pid, obj=obj,
                                     vpid=old_id)
                continue
            local_date = self.processor.store.date(obj)
            sources = self._recovery_sources(obj)
            if sources:
                reads.append((obj, sources, local_date))
            else:
                self._install_freshest(obj, old_id, (), local_date, {})
        if reads:
            ReadRound(self, old_id, reads)

    def _update_goes_on(self, obj: str, old_id) -> bool:
        """Still in the partition the update started in, with a copy?"""
        state = self.state
        if not (state.assigned and state.cur_id == old_id):
            return False
        if not self.processor.store.holds(obj):
            # A concurrent reshard retired this copy while the update
            # was queued or parked: nothing is left to catch up locally.
            state.unlock_object(obj)
            return False
        return True

    def _install_freshest(self, obj: str, old_id, sources, local_date,
                          results: dict) -> None:
        """Fig. 9 lines 12-17 on the answers of ``sources``: install the
        newest copy read, only if still in the same partition."""
        refusals = {reply and reply["reason"] for reply in results.values()
                    if not (reply and reply["ok"])}  # None: silence
        if refusals - {"in-doubt"}:
            # Fig. 9 line 12's [no-response] — silence, or a source in
            # another partition or write-locked, which R5 must not read:
            # the view is wrong; the object stays locked for the next
            # partition's update.  Actionable only while we still stand
            # in the partition the evidence was gathered in: reacting to
            # a superseded generation's silence (or to a refusal from a
            # source that already moved on) mints a partition per
            # generation, and the views never settle.
            if self.state.assigned and self.state.cur_id == old_id:
                self.create_new_vp()
            return
        if refusals:
            # A source's copy carries a prepared write whose 2PC outcome
            # is pending.  The view is fine: update again (a one-object
            # round) once it is resolved instead of spawning a new
            # partition generation.
            self.processor.after(self.config.commit_wait,
                                 self._update_objects, (obj,), old_id)
            return
        newest, units = None, 0
        for reply in results.values():
            units += reply.get("units", 0)
            if reply.get("truncated"):
                # the source compacted past our date; it shipped the
                # whole value instead of log entries
                self.metrics.catchup_fallbacks += 1
            if _date_newer(reply["date"],
                           newest["date"] if newest else local_date):
                newest = reply
        if not self._update_goes_on(obj, old_id):
            return
        store = self.processor.store
        if newest is not None and newest.get("entries") is not None:
            store.apply_log(obj, newest["entries"])
        elif newest is not None:
            store.install(obj, newest["value"], newest["date"],
                          newest["version"])
        self.metrics.transfer_units += units
        self.metrics.recoveries += 1
        if self.tracer is not None:
            self.tracer.emit("recover.object", pid=self.pid, obj=obj,
                             units=units, vpid=old_id)
        self.state.unlock_object(obj)

    def _recovery_sources(self, obj: str) -> list[int]:
        """Which remote copies to read, per the configured strategy."""
        state = self.state
        holders = sorted((self.placement.copies(obj) & state.lview) - {self.pid})
        if self.config.init_strategy == "read-all" or not state.previous_map:
            return holders
        # §6 optimized search: among view members holding a copy for
        # which the object was accessible in their previous partition,
        # the one with the maximal previous id has the freshest copy.
        candidates = [
            (state.previous_map[holder][0], holder)
            for holder in set(holders) | {self.pid}
            if holder in state.previous_map
            and obj in state.previous_map[holder][1]
        ]
        if not candidates:
            return holders  # no usable info: fall back to Fig. 9
        _best_prev, best_holder = max(candidates)
        if best_holder == self.pid:
            return []  # our copy is already the freshest: no reads
        return [best_holder]

    # ------------------------------------------------------------------
    # server side: answering recovery reads
    # ------------------------------------------------------------------

    def _handle_vpread(self, message) -> None:
        """Answer in one reply every object we can answer at once — we
        stand in the read's partition and the copy is stable, or we left
        that partition; each other object runs the body that waits for
        our join or at the gate, and is answered in a reply of its own."""
        payload = message.payload
        state = self.state
        current = state.assigned and payload["v"] == state.cur_id
        moved_on = state.assigned and payload["v"] < state.cur_id
        answers, in_doubt = {}, self._in_doubt_objects()
        for obj, after in payload["objs"].items():
            if current and self.cc.stable_read_now(obj):
                answers[obj] = self._vpread_answer(obj, payload["mode"], after,
                                                   in_doubt)
            elif moved_on:
                answers[obj] = {"ok": False, "reason": "wrong-partition"}
            else:
                self.processor.spawn(
                    "vpread", self._vpread_when_ready(message, obj, after))
        if answers:
            self.processor.reply(message, "vpread-reply", answers)

    def _vpread_when_ready(self, message, obj: str, after):
        payload = message.payload
        state = self.state
        # The requester may simply be ahead of us: its commit for the
        # same partition can still be in flight.  Wait up to the commit
        # timeout for our own join — Fig. 12's plain "if" (silence) would
        # have the requester declare us dead over a legal network race.
        deadline = self.sim.now + self.config.commit_wait
        while (payload["v"] > state.cur_id or not state.assigned) \
                and self.sim.now < deadline:
            yield from self.sim.wait(state.partition_changed.wait(),
                                     deadline - self.sim.now)
        if not (state.assigned and payload["v"] == state.cur_id):
            answer = {"ok": False, "reason": "wrong-partition"}
        # Condition (3) of the weakened R4: never ship a value a live
        # transaction is overwriting (the CC's gate: a brief shared lock
        # under 2PL, an uncommitted-writer wait under TSO).
        elif not (yield from self.cc.stable_read_gate(obj)):
            answer = {"ok": False, "reason": "write-locked"}
        else:
            answer = self._vpread_answer(obj, payload["mode"], after,
                                         self._in_doubt_objects())
        self.processor.reply(message, "vpread-reply", {obj: answer})

    def _vpread_answer(self, obj: str, mode: str, after, in_doubt) -> dict:
        """The answer for ``obj`` past the partition check and gate."""
        # The gate covers the 2PC uncertainty window in normal operation
        # (an in-doubt writer holds its copy lock until the decide is
        # applied), but CC locks are volatile: after a crash the
        # force-written in-doubt write is still on the copy.  Never ship
        # it; the requester retries once the resolver learned the outcome.
        if obj in in_doubt:
            return {"ok": False, "reason": "in-doubt"}
        store = self.processor.store
        copy = store.copy_of(obj)
        if copy is None:
            # A reshard retired our copy while this request was in
            # flight; the requester must pick a holder of the new
            # placement instead.
            return {"ok": False, "reason": "no-copy"}
        entries, truncated = None, False
        if mode == "log":
            try:
                entries = store.log_since(obj, after)
            except LogTruncated:
                # Compaction discarded entries the requester would need
                # (its copy predates the retained floor).  §6's log
                # catch-up degrades gracefully to Fig. 9's full-object
                # transfer — correctness never depends on log history,
                # only the transfer cost does.
                truncated = True
        units = copy.size if entries is None else len(entries)
        return {"ok": True, "value": copy.value, "date": copy.date,
                "version": copy.version, "entries": entries,
                "units": units, "truncated": truncated}

    # ------------------------------------------------------------------
    # server side: migration control (reshard engine only)
    # ------------------------------------------------------------------
    # Served like every other request kind (gate and release never
    # wait, install may); a cluster that never reshards
    # never receives one, and a handler-table entry costs no event.

    def _handle_reshard_gate(self, message) -> None:
        """Write-gate the local copy and report its freshness.

        A plain handler, run at the request's delivery: the gate and the
        reported date are one atomic snapshot.  A write that already passed the gate check
        but is still waiting on its copy lock is caught by the post-wait
        re-check in ``_admit`` — no write lands after the gate's
        date without the coordinator's verify round seeing it.
        """
        payload = message.payload
        obj = payload["obj"]
        store = self.processor.store
        self.state.gate_migration(obj)
        self.processor.reply(message, "reshard-gate-reply", {
            "ok": True,
            "date": store.date(obj) if store.holds(obj) else None,
            "in_doubt": obj in self._in_doubt_objects(),
        })

    def _handle_reshard_install(self, message):
        """Install a copy of ``obj`` here via the §6 catch-up path.

        The new holder reads the nearest in-view source copy with a
        one-object ``vpread`` (same stable-read gate and in-doubt refusal
        as partition initialization) and materializes it locally.  Every
        refusal maps to a not-ok reply; the coordinator retries until
        the views merge and the sources quiesce.
        """
        payload = message.payload
        obj = payload["obj"]
        state = self.state
        store = self.processor.store
        if not state.assigned:
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": "unassigned"})
            return
        in_view = [p for p in payload["sources"]
                   if p in state.lview and p != self.pid]
        if store.holds(obj) and not in_view:
            # Staying holder (weight-only move) or re-delivered install:
            # our own copy is a valid source.
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": True, "date": store.date(obj)})
            return
        if not in_view:
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": "no-source-in-view"})
            return
        source = min(in_view, key=lambda p: (self.distance(p), p))
        results = yield from self.processor.scatter(
            [source], "vpread",
            lambda _server: {"v": state.cur_id, "mode": "full",
                             "objs": {obj: None}},
            timeout=self.config.access_timeout,
        ).gather()
        reply = results[source]
        answer = reply[obj] if reply else None
        if answer is None or not answer["ok"]:
            reason = "no-response" if answer is None else answer["reason"]
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": reason})
            return
        value, date, version = (answer["value"], answer["date"],
                                answer["version"])
        if not store.holds(obj):
            store.place(obj, initial=value, date=date,
                        size=payload["size"], version=version)
        elif _date_newer(date, store.date(obj)):
            store.install(obj, value, date, version)
        self.metrics.reshard_installs += 1
        self.metrics.transfer_units += answer.get("units", 0)
        self.history.record(CopyInstall(self.sim.now, self.pid, obj, source))
        self.processor.reply(message, "reshard-install-reply",
                             {"ok": True, "date": store.date(obj)})

    def _handle_reshard_release(self, message) -> None:
        """Drop the write gate; dropped holders also retire the copy.

        Retiring is refused (reply not-ok, gate kept) while the copy
        still carries unresolved transaction state — an in-doubt write
        or an unapplied before-image — because the late decide must
        still find the copy to settle it.  The coordinator retries.
        """
        payload = message.payload
        obj = payload["obj"]
        store = self.processor.store
        if payload["retire"] and store.holds(obj):
            busy = obj in self._in_doubt_objects() or any(
                obj in images for images in self._before_images.values()
            )
            if busy:
                self.processor.reply(message, "reshard-release-reply",
                                     {"ok": False, "reason": "busy"})
                return
            store.retire(obj)
            self.metrics.reshard_retires += 1
            self.history.record(CopyRetire(self.sim.now, self.pid, obj))
        self.state.ungate_migration(obj)
        self.processor.reply(message, "reshard-release-reply", {"ok": True})
