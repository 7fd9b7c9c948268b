"""Figure 6: ``Monitor-VP-Creations``.

Accepts invitations to higher-numbered partitions, waits (3δ) for the
initiator's commit, and — if the commit never arrives (the acceptance
was lost, the initiator died, or the commit was lost) — starts a fresh
partition creation itself.  This wait is what makes partition creation
self-healing under omission failures.

The figure's ``select`` over ``newvp`` | ``commit`` | ``T.timeout``
never waits inside a branch, so it is three callbacks on one piece of
state rather than a task: the two message kinds are handlers served at
their delivery events and the timer is one cancellable timeout
(``_commit_wait``).  An invitation therefore raises ``max_id`` the
instant it is delivered, before anything else at that instant can act
on the old value.
"""

from __future__ import annotations


class MonitorMixin:
    """Acceptor side of virtual partition creation."""

    def monitor_newvp(self, message) -> None:
        """Fig. 6 lines 6-10: accept only strictly higher ids."""
        state = self.state
        invited_id = message.payload["id"]
        if not state.max_id < invited_id:
            return
        info = self._previous_info()
        state.max_id = invited_id
        state.depart()
        # The durable max-id bump is forced before the acceptance
        # leaves: a crash after accepting must not let this processor
        # mint or accept ids below ``invited_id`` again.  Only this
        # acceptance waits for the sync (on its own timer): a blocking
        # sync would push later accepts past the initiators' invite_wait.
        self.processor.after(self.config.storage_sync_cost,
                             self._accept_invitation, invited_id, info)
        self._disarm_commit_wait()
        self._commit_wait = self.sim.timeout(self.config.commit_wait)
        self._commit_wait.callbacks = self._commit_wait_expired

    def monitor_commit(self, message) -> None:
        """Fig. 6 lines 12-20: commit only to the id we accepted last;
        anything else is stale."""
        state = self.state
        committed_id = message.payload["id"]
        if committed_id != state.max_id:
            return
        view = set(message.payload["view"])
        # The membership check matters when our acceptance reached the
        # initiator too late (or not at all): the committed view then
        # excludes us, and joining it would violate S2 — every member
        # of a view must be in that view.  Stay departed instead; the
        # commit wait armed at accept time still expires and forms a
        # fresh partition around us.
        if self.pid not in view:
            if self.tracer is not None:
                self.tracer.emit("vp.commit-excluded", pid=self.pid,
                                 vpid=committed_id, view=sorted(view))
            return
        self._commit_partition(committed_id, view,
                               dict(message.payload["previous_map"]))
        self._disarm_commit_wait()

    def _commit_wait_expired(self, _event) -> None:
        """Fig. 6 lines 22-24: no commit arrived in time; claim the
        next identifier and try to form a partition."""
        state = self.state
        self._commit_wait = None
        if self.tracer is not None:
            self.tracer.emit("vp.commit-timeout", pid=self.pid,
                             vpid=state.max_id)
        state.max_id = state.max_id.successor(self.pid)
        self.schedule_create_vp(state.max_id)

    def _disarm_commit_wait(self) -> None:
        if self._commit_wait is not None:
            self._commit_wait.cancel()
            self._commit_wait = None

    def _accept_invitation(self, invited_id, info) -> None:
        """Send the acceptance (its forced write has landed)."""
        if self.tracer is not None:
            self.tracer.emit("vp.accept", pid=self.pid, vpid=invited_id,
                             initiator=invited_id.pid)
        self.processor.send(invited_id.pid, "vp-accept", {
            "id": invited_id,
            "from": self.pid,
            "previous": info[0],
            "prev_accessible": sorted(info[1]),
        })
