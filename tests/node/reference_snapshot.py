"""Reference snapshot: freeze everything durable, from scratch.

This is the full walk ``StorageEngine.snapshot`` used to be — every
copy, every cell, every decision, rebuilt on each call.  The engine now
folds the WAL tail into its last checkpoint instead; this stays as the
oracle that fold is held equal to (``test_snapshot_fold.py``).  Nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from repro.node.storage import CopySnapshot, Snapshot, StorageEngine


def reference_snapshot(engine: StorageEngine) -> Snapshot:
    """Everything durable on ``engine`` right now, sharing nothing."""
    return Snapshot(
        copies={
            obj: CopySnapshot(obj=obj, value=copy.value, date=copy.date,
                              version=copy.version, size=copy.size,
                              log=None if copy.log is None else tuple(copy.log),
                              floor=copy.floor)
            for obj, copy in engine._copies.items()},
        # a cell holding None was never written: nothing journals it,
        # and a rebuilt engine recreates it as None when asked
        cells={name: value for name, value in engine._cells.items()
               if value is not None},
        decisions=dict(engine._decisions),
    )
