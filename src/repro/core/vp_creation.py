"""Figures 4–5: ``Create-new-VP`` and the ``Create-VP`` task.

Partition creation is a three-phase protocol (§5):

1. the initiator mints an identifier greater than everything it has
   seen and invites every processor (``newvp``);
2. it collects acceptances for 2δ, then — if no higher-numbered
   invitation arrived meanwhile — commits itself and distributes the
   new view (``commit``);
3. copies accessible in the new partition are brought up to date
   (``Update-Copies-in-View``; see :mod:`repro.core.copy_update`).

Phase 1 additionally piggybacks each acceptor's *previous* partition id
and the objects that were accessible there — the information §6's
optimized initialization needs, collected "at no extra cost in messages
or time".
"""

from __future__ import annotations


class CreationMixin:
    """Initiator side of virtual partition creation."""

    def create_new_vp(self) -> None:
        """Fig. 4: depart, mint the next identifier, launch Create-VP.

        A no-op while unassigned — some partition creation is already in
        progress and its failure paths (the 3δ commit timer in Fig. 6)
        guarantee a retry, so piling up attempts is never needed.
        """
        state = self.state
        if not state.assigned:
            return
        state.depart()
        state.max_id = state.max_id.successor(self.pid)
        self.schedule_create_vp(state.max_id)

    def schedule_create_vp(self, new_id) -> None:
        """The paper's ``schedule``: start the task unless already active."""
        running = self._create_vp_process
        if running is not None and running.is_alive:
            return
        self._create_vp_process = self.processor.spawn(
            f"create-vp({new_id})", self._create_vp_task(new_id)
        )

    def _create_vp_task(self, new_id):
        """Fig. 5: invite, collect accepts for 2δ, commit the view."""
        state = self.state
        self.metrics.vp_created += 1
        # The max-id bump that minted ``new_id`` is a forced write (the
        # durable cell journals it — identifiers must survive crashes);
        # its sync cost delays the invitations.
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        others = sorted(p for p in self.all_pids if p != self.pid)
        if self.tracer is not None:
            self.tracer.emit("vp.invite", pid=self.pid, vpid=new_id,
                             invited=others)
        accepted = {self.pid}
        previous_map = {self.pid: self._previous_info()}

        def accept(message) -> bool:
            # Runs at receipt time so the accept trace events and the
            # previous-map (§6 piggyback) carry per-arrival timestamps.
            if message.payload["id"] != new_id:
                return False
            acceptor = message.payload["from"]
            accepted.add(acceptor)
            previous_map[acceptor] = (
                message.payload["previous"],
                frozenset(message.payload["prev_accessible"]),
            )
            if self.tracer is not None:
                self.tracer.emit("vp.accept-recv", pid=self.pid,
                                 vpid=new_id, acceptor=acceptor)
            return True

        yield from self.processor.broadcast_collect(
            others, "newvp", {"id": new_id},
            reply_kind="vp-accept", window=self.config.invite_wait,
            accept=accept,
        )
        # Fig. 5 line 14: commit only if no higher id arrived meanwhile.
        if new_id != state.max_id:
            if self.tracer is not None:
                self.tracer.emit("vp.abandon", pid=self.pid, vpid=new_id,
                                 superseded_by=state.max_id)
            return
        if self.tracer is not None:
            self.tracer.emit("vp.commit", pid=self.pid, vpid=new_id,
                             view=sorted(accepted))
        # The commits leave before our own join sends Update-Copies'
        # recovery reads: a member must see its commit first.
        for pid in others:
            self.processor.send(pid, "commit", {
                "id": new_id,
                "view": sorted(accepted),
                "previous_map": dict(previous_map),
            })
        self._commit_partition(new_id, accepted, previous_map)

    def _previous_info(self):
        """This processor's (previous partition, objects accessible there)."""
        state = self.state
        accessible = self.placement.accessible_objects(
            state.lview, self.processor.store.local_objects
        )
        return (state.cur_id, frozenset(accessible))

    def _commit_partition(self, vpid, view, previous_map) -> None:
        """Shared join path (initiator and acceptors): R5 lock + update.

        Fig. 5 lines 15–19 / Fig. 6 lines 13–19: assign, replace the
        locked set with the objects accessible in the new view that have
        local copies, and schedule Update-Copies-in-View.
        """
        state = self.state
        state.join(vpid, set(view), previous_map)
        self.metrics.vp_joined += 1
        self.on_partition_change()
        locked = self.placement.accessible_objects(
            state.lview, self.processor.store.local_objects
        )
        state.clear_locked()
        state.lock_objects(locked)
        self._schedule_update_copies()
