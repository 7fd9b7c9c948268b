"""Virtual partition identifiers and their total order (§5, Fig. 3).

A vp-id is a pair ``(n, p)`` of a sequence number and the creating
processor's id, ordered by::

    (n, p) ≺ (n', p')  ⟺  n < n'  ∨  (n = n' ∧ p < p')

The paper proves this order is a *legal creation order* (satisfies S3),
which is what lets Update-Copies-in-View identify the most recent value
of an object as the one with the largest date.

``VpId`` is an ``(n, pid)`` tuple: ≺ is tuple order, run in C, and it
hashes as the plain pair.
"""

from __future__ import annotations

from operator import itemgetter


class VpId(tuple):
    """A globally unique, totally ordered virtual partition identifier."""

    __slots__ = ()

    def __new__(cls, n: int, pid: int) -> "VpId":
        if n < 0:
            raise ValueError(f"sequence number must be non-negative: {n}")
        return tuple.__new__(cls, (n, pid))

    n = property(itemgetter(0), doc="the sequence number")
    pid = property(itemgetter(1), doc="the creating processor")

    def __getnewargs__(self):
        return tuple(self)

    def successor(self, pid: int) -> "VpId":
        """The id a processor ``pid`` generates after seeing this one
        (Fig. 4 line 4: ``(max-id.n + 1, myid)``)."""
        return VpId(self[0] + 1, pid)

    def __repr__(self) -> str:
        return f"vp({self[0]},{self[1]})"


def initial_vp_id(pid: int) -> VpId:
    """The id a freshly booted processor assigns itself (Fig. 3 line 3)."""
    return VpId(0, pid)
