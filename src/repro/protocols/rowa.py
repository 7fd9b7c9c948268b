"""Read-one / write-ALL: the zero-fault-tolerance baseline.

Reads touch one copy (the nearest responsive one), so read cost matches
the paper's protocol — but a logical write must reach *every* copy, so
a single crashed or partitioned-away copy holder blocks all writes.
ROWA anchors the availability comparison (benchmark E4): it shows what
the majority rule buys.
"""

from __future__ import annotations

from typing import Any

from .base import ReplicaControlProtocol


class RowaProtocol(ReplicaControlProtocol):
    """Read any copy; write all copies or abort."""

    name = "rowa"

    def logical_read(self, obj: str, ctx):
        """Try copies nearest-first until one answers."""
        payload = yield from self._read_one(obj, ctx, self._nearest(obj),
                                            "no-copy")
        return payload["value"]

    def logical_write(self, obj: str, value: Any, ctx):
        """Every copy must acknowledge, or the write (and txn) aborts."""
        yield from self._write_all(obj, value, ctx,
                                   sorted(self.placement.copies(obj)))
