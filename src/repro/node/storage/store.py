"""Physical copies: values, dates, and write logs.

Each processor stores, for every logical object it replicates (Fig. 3's
``local`` set and §5's ``value``/``date`` functions):

* the current **value** of its physical copy,
* the **date** — the virtual-partition identifier current when the copy
  was last written (any totally ordered token works; the protocol layer
  uses :class:`~repro.core.ids.VpId`),
* a **write log** of ``(date, value)`` entries enabling the §6
  missing-writes catch-up optimization (ship only the writes the copy
  missed, not the whole object) — kept only under ``catchup="log"``.

One processor's copies live in the ``{obj: Copy}`` table of its
:class:`~repro.node.storage.engine.StorageEngine`, which seeds each
log with the placement entry and journals every mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional

#: a complete log's floor, unlike a ``None``-dated one (the placement
#: entry's ``date=None`` can itself be compacted away)
NO_FLOOR = object()


class LogEntry(NamedTuple):
    """One physical write applied to a copy."""

    date: Any
    value: Any
    version: Any = None


@dataclass
class Copy:
    """A physical copy of a logical object."""

    obj: str
    value: Any
    date: Any
    size: int = 1
    version: Any = None
    log: Optional[List[LogEntry]] = None
    #: newest compacted-away log date (see :mod:`.checkpoint`)
    floor: Any = NO_FLOOR
