"""Typed message envelopes exchanged between processors."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Mapping

# Fallback id stream for directly constructed messages (tests, ad-hoc
# envelopes).  Messages sent through a Processor draw their ids from
# the owning Network instead (`Network.next_msg_id`), so same-seed
# clusters built back-to-back in one process see identical id streams.
_MESSAGE_IDS = count(1)


@dataclass(frozen=True)
class Message:
    """An immutable message in flight.

    ``kind`` is the protocol-level message type (``"newvp"``, ``"probe"``,
    ``"read"``, ...) the receiver dispatches on; ``payload`` carries the
    protocol fields; ``reply_to`` links responses to requests for the
    RPC helper.
    """

    src: int
    dst: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    reply_to: int | None = None
    msg_id: int = field(default_factory=lambda: next(_MESSAGE_IDS))
    sent_at: float = 0.0

    def reply(self, kind: str, payload: Mapping[str, Any] | None = None,
              sent_at: float = 0.0) -> "Message":
        """Build the response envelope addressed back to the sender."""
        return Message(
            src=self.dst,
            dst=self.src,
            kind=kind,
            payload=payload or {},
            reply_to=self.msg_id,
            sent_at=sent_at,
        )

    def __repr__(self) -> str:
        return (f"Message#{self.msg_id}({self.kind} {self.src}->{self.dst} "
                f"{dict(self.payload)!r})")
