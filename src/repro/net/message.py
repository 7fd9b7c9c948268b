"""Typed message envelopes exchanged between processors."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple


class Message(NamedTuple):
    """An immutable message in flight.

    ``kind`` is the protocol-level message type (``"newvp"``, ``"probe"``,
    ``"read"``, ...) the receiver dispatches on; ``payload`` carries the
    protocol fields; ``reply_to`` links a reply to its call's request.
    Ids come only from the network the message travels on
    (``Network.next_msg_id``, drawn by ``Processor.send`` / ``reply``),
    so same-seed clusters built back-to-back in one process see
    identical id streams; a directly constructed envelope keeps id 0.
    """

    src: int
    dst: int
    kind: str
    payload: Mapping[str, Any] = MappingProxyType({})
    reply_to: int | None = None
    msg_id: int = 0
    sent_at: float = 0.0

    def __repr__(self) -> str:
        return (f"Message#{self.msg_id}({self.kind} {self.src}->{self.dst} "
                f"{dict(self.payload)!r})")
