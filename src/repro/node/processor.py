"""The processor runtime hosting protocol tasks.

A :class:`Processor` owns:

* the one inbound path (:meth:`Processor._on_delivery`): every message
  is consumed by a callable at its delivery — a reply by the one
  its call registered, a *served* kind (:meth:`Processor.serve`, or an
  open :meth:`Processor.broadcast_collect` window) by its handler;
  a kind nobody serves raises ``KeyError`` at its delivery;
* an RPC helper implementing the paper's ``send ... receive ...
  [no-response: ...]`` pattern (Figs. 9–11): reply matching through a
  :class:`ReplyWaiter` waited on with ``sim.wait`` — the deadline
  forgets the registration in its own dispatch, so a reply arriving
  later, even in that instant, is late and counted;
* a task registry: protocol layers register named generator factories;
  tasks are (re)spawned on start/recover and killed on crash, as are
  spawned bodies and :meth:`Processor.after` timers, matching the paper's
  model where a crash wipes all volatile state but durable storage survives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from ..net.message import Message
from ..net.network import Network
from ..sim import Event, Process, Simulator, start_process
from .storage import StorageEngine
from .transport import (  # noqa: F401  (NoResponse re-exported)
    NoResponse, QuorumPredicate, ScatterCall, TransportStats,
)

TaskFactory = Callable[[], Any]  # returns a generator
Handler = Callable[[Message], None]

#: one-shot processes tracked beyond twice the live ones before a prune
SPAWN_SLACK = 16


def window_closed(message: Message) -> None:
    """Serves a ``broadcast_collect`` reply kind between windows: an
    ack that missed its window is dropped."""


class ReplyWaiter(Event):
    """The pending reply of one :meth:`Processor.rpc`, registered in
    the caller's reply table; cancelling it (the deadline, or the kill
    of the waiting process) forgets the registration, so a reply that
    still arrives is late — and counted."""

    __slots__ = ("_table", "_request_id")

    def __init__(self, processor: "Processor", request_id: int):
        super().__init__(processor.sim)
        self._table = processor._reply_waiters
        self._request_id = request_id
        self._table[request_id] = self.succeed

    def cancel(self) -> None:
        self._table.pop(self._request_id, None)


class Processor:
    """One node of the distributed system."""

    def __init__(self, pid: int, sim: Simulator, network: Network,
                 store: Optional[StorageEngine] = None):
        self.pid = pid
        self.sim = sim
        self.network = network
        #: durable storage — survives crashes; the cluster may supply an
        #: engine configured with checkpoint/compaction policy
        self.store = store if store is not None else StorageEngine(pid)
        self.alive = True
        #: fan-out accounting for the shared transport primitives
        self.transport = TransportStats()
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: request id -> the callable its reply is handed to
        self._reply_waiters: Dict[int, Callable[[Message], Any]] = {}
        self._handlers: Dict[str, Handler] = {}
        self._task_factories: Dict[str, TaskFactory] = {}
        self._tasks: Dict[str, Process] = {}
        #: one-shot processes in spawn order; finished ones are pruned
        #: once the list outgrows ``_prune_at``
        self._spawned: list[Process] = []
        self._prune_at = SPAWN_SLACK
        #: keys of the pending ``after`` timers; each leaves as it fires
        self._timers: Dict[int, None] = {}
        self._crash_hooks: list[Callable[[], None]] = []
        self._recover_hooks: list[Callable[[], None]] = []
        network.register(pid, self._on_delivery)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"Processor({self.pid}, {state})"

    # -- messaging ------------------------------------------------------------

    # send and reply build a Message with no Python frame: tuple.__new__,
    # the network's id stream and the clock's slot are all C calls

    def send(self, dst: int, kind: str, payload: Mapping[str, Any]
             | None = None) -> Message:
        """Fire-and-forget send; returns the envelope (for reply matching)."""
        message = tuple.__new__(Message, (self.pid, dst, kind, payload or {}, None,
                                          self.network.next_msg_id(), self.sim._now))
        self.network.send(message)
        return message

    def reply(self, request: Message, kind: str,
              payload: Mapping[str, Any] | None = None) -> None:
        """Respond to ``request``; routed back to its ``rpc`` waiter."""
        self.network.send(tuple.__new__(Message, (
            self.pid, request.src, kind, payload or {}, request.msg_id,
            self.network.next_msg_id(), self.sim._now)))

    def rpc(self, dst: int, kind: str, payload: Mapping[str, Any] | None,
            timeout: float):
        """Generator: request/response with a deadline.

        Use as ``response = yield from processor.rpc(...)``.  Raises
        :class:`NoResponse` when no reply arrives within ``timeout`` —
        the caller decides whether that aborts the operation, retries
        elsewhere, or triggers a new virtual partition.
        """
        waiter = ReplyWaiter(self, self.send(dst, kind, payload).msg_id)
        response = yield from self.sim.wait(waiter, timeout)
        if response is None:
            raise NoResponse(dst, kind)
        return response

    def serve(self, kind: str, handler: Handler) -> None:
        """Call ``handler(message)`` at the delivery event of every
        ``kind`` request, in arrival order.

        Handlers are plain callables; one that may need to wait runs a
        generator with :meth:`spawn`.  The table outlives crashes: a
        down processor drops the message, a recovered one serves again.
        """
        if kind in self._handlers:
            raise KeyError(f"kind {kind!r} already served on {self.pid}")
        self._handlers[kind] = handler

    def serve_spawned(self, kind: str, body: Callable[[Message], Any]) -> None:
        """:meth:`serve` ``kind`` with a handler that may wait: each
        request :meth:`spawn`-s the generator ``body(message)`` at its
        delivery event, so only a request that waits costs a process."""
        name = f"serve-{kind}"
        self.serve(kind, lambda message: self.spawn(name, body(message)))

    # -- fan-out primitives (see node/transport.py) ---------------------------

    def scatter(self, targets: Iterable[int], kind: str,
                payload_for: Callable[[int], Mapping[str, Any] | None],
                *, timeout: float) -> ScatterCall:
        """Start parallel RPCs to ``targets``; gather the replies later.

        The two-phase form: requests go out now, the caller may do
        local work, then ``results = yield from call.gather()``.
        """
        return ScatterCall(self, targets, kind, payload_for, timeout=timeout)

    def scatter_to_copies(self, directory, obj: str, view: Iterable[int],
                          kind: str,
                          payload_for: Callable[[int],
                                                Mapping[str, Any] | None],
                          *, timeout: float):
        """Directory-routed fan-out: resolve ``obj``'s copy-holders
        inside ``view`` through ``directory`` and scatter to them.

        Returns ``(targets, call)`` — the resolved holder list (sorted)
        and the in-flight :class:`ScatterCall`; the caller gathers when
        ready.  Counted separately from plain scatters so routed
        traffic is measurable per processor.
        """
        targets = directory.write_targets(obj, view)
        self.transport.routed_fanouts += 1
        call = self.scatter(targets, kind, payload_for, timeout=timeout)
        return targets, call

    def scatter_gather(self, targets: Iterable[int], kind: str,
                       payload_for: Callable[[int], Mapping[str, Any] | None],
                       *, timeout: float,
                       quorum: Optional[QuorumPredicate] = None):
        """Generator: parallel RPCs to ``targets`` under one deadline.

        Returns ``{target: reply_payload_or_None}`` (None = silence).
        With ``quorum``, stops early once the predicate holds on the
        partial map (see :meth:`ScatterCall.gather`).
        """
        call = self.scatter(targets, kind, payload_for, timeout=timeout)
        results = yield from call.gather(quorum=quorum)
        return results

    def broadcast_collect(self, targets: Iterable[int], kind: str,
                          payload: Mapping[str, Any] | None, *,
                          reply_kind: str, window: float,
                          accept: Callable[[Message], bool]):
        """Generator: one-way broadcast, then a timed collection window.

        The Figs. 5/7 pattern: send ``kind`` to every target, then for
        ``window`` time units serve ``reply_kind``, passing each arrival
        to ``accept`` — which filters (return False to ignore) and may
        record per-arrival state (trace events, responder sets) at
        receipt time.  Returns the accepted messages.  Outside a window
        the kind is dropped at delivery, also after a crash killed the
        collector; one window per kind may be open at a time.
        """
        collected: list[Message] = []

        def arrival(message: Message) -> None:
            if accept(message):
                collected.append(message)

        if self._handlers.get(reply_kind) is window_closed:
            del self._handlers[reply_kind]
        self.serve(reply_kind, arrival)
        try:
            self.transport.broadcasts += 1
            for dst in targets:
                self.send(dst, kind, payload)
            yield self.sim.timeout(window)
        finally:
            self._handlers[reply_kind] = window_closed
        return collected

    def _on_delivery(self, message: Message) -> None:
        if not self.alive:
            return
        if message.reply_to is not None:
            waiter = self._reply_waiters.pop(message.reply_to, None)
            if waiter is not None:
                waiter(message)
                return
            # Late or duplicate reply: nobody is waiting; drop it — but
            # visibly.  A steady stream of late replies means timeouts
            # are tuned below the real round-trip time.
            self.transport.late_replies += 1
            if self.tracer is not None:
                self.tracer.emit("msg.late-reply", pid=self.pid,
                                 src=message.src, kind=message.kind,
                                 reply_to=message.reply_to)
            return
        self._handlers[message.kind](message)

    # -- task management ----------------------------------------------------------

    def add_task(self, name: str, factory: TaskFactory) -> None:
        """Register a long-running protocol task (spawned by :meth:`start`)."""
        if name in self._task_factories:
            raise KeyError(f"task {name!r} already registered on {self.pid}")
        self._task_factories[name] = factory

    def on_crash(self, hook: Callable[[], None]) -> None:
        """Register a volatile-state reset hook, run on crash."""
        self._crash_hooks.append(hook)

    def on_recover(self, hook: Callable[[], None]) -> None:
        """Register a reinitialization hook, run on recovery."""
        self._recover_hooks.append(hook)

    def start(self) -> None:
        """Spawn all registered tasks (idempotent per task)."""
        for name, factory in self._task_factories.items():
            existing = self._tasks.get(name)
            if existing is not None and existing.is_alive:
                continue
            self._tasks[name] = self.sim.process(
                factory(), name=f"p{self.pid}.{name}"
            )

    def spawn(self, name: str, generator) -> Optional[Process]:
        """Run a one-shot body tied to this processor's life; its first
        step runs in this call.  Returns the process it became if it
        waits (tracked, killed by :meth:`crash`); a body that finishes
        at once costs no ``Process`` and no event, and returns ``None``."""
        process = start_process(self.sim, generator, f"p{self.pid}.{name}",
                                one_shot=True)
        if process is not None and process.is_alive:
            spawned = self._spawned
            if len(spawned) >= self._prune_at:
                spawned[:] = [p for p in spawned if p.is_alive]
                self._prune_at = 2 * len(spawned) + SPAWN_SLACK
            spawned.append(process)
        return process

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` from now (in this call if 0) on one
        kernel call entry, no event or process: how a message waits out a
        priced forced write.  :meth:`crash` cancels it; recovery does not."""
        if not delay:
            fn(*args)
            return
        timers = self._timers

        def fire(_arg) -> None:
            del timers[key]
            fn(*args)

        key = self.sim.call(delay, fire)
        timers[key] = None

    # -- failure model ------------------------------------------------------------

    def crash(self) -> None:
        """Omission failure: all tasks die, volatile state is lost.

        The durable :attr:`store` survives.  The caller (failure
        injector) is responsible for also marking the node down in the
        communication graph.
        """
        if not self.alive:
            return
        self.alive = False
        for process in (*self._tasks.values(), *self._spawned):
            process.kill()
        for key in self._timers:
            self.sim.cancel(key)
        self._spawned.clear()
        self._timers.clear()
        self._reply_waiters.clear()
        for hook in self._crash_hooks:
            hook()

    def recover(self) -> None:
        """Restart after a crash: hooks run, then tasks respawn."""
        if self.alive:
            return
        self.alive = True
        for hook in self._recover_hooks:
            hook()
        self.start()
