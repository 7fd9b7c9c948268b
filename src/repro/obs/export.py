"""JSONL trace export and import.

One event per line, keys sorted, compact separators, values normalized
by :func:`~repro.obs.events.jsonable` — the combination that makes two
same-seed runs serialize byte-identically (the determinism guard in
``tests/obs/test_determinism.py`` diffs these bytes directly).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, List, Union

from .events import TraceEvent

PathOrFile = Union[str, Path, IO[str]]


def event_line(event: TraceEvent) -> str:
    """The canonical single-line JSON form of one event."""
    return json.dumps(event.to_dict(), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def dumps_jsonl(events: Iterable[TraceEvent]) -> str:
    """The whole trace as one JSONL string (trailing newline included).

    Built with a single ``join`` rather than per-event writes — a long
    traced run easily reaches hundreds of thousands of lines, where two
    method calls per event dominate.  The bytes are unchanged (pinned
    by the trace-determinism test).
    """
    lines = [event_line(event) for event in events]
    if not lines:
        return ""
    lines.append("")  # trailing newline
    return "\n".join(lines)


def write_jsonl(events: Iterable[TraceEvent], out: PathOrFile) -> int:
    """Write ``events`` to a path or open text file; returns the count.

    Buffered like :func:`dumps_jsonl`: every line is serialized first,
    then written in one call instead of two writes per event.
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as handle:
            return write_jsonl(events, handle)
    lines = [event_line(event) for event in events]
    if lines:
        out.write("\n".join(lines) + "\n")
    return len(lines)


def read_jsonl(source: PathOrFile) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_jsonl(handle)
    events = []
    for line in source:
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events
