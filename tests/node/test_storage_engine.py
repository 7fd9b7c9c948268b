"""The storage engine: one copy table, journalled into a WAL.

Two layers of pinning:

* the copy table — every access behaviour (place / read / write /
  install / log_since / apply_log, including the ``date=None`` edge
  cases) over one scripted workload, pinned as a literal (captured at
  PR 19's parent, where it also equalled the un-journalled
  ``CopyStore`` the engine used to wrap);
* durability — WAL accounting, snapshot/checkpoint/rebuild
  round-trips, compaction floors and :class:`LogTruncated`, durable
  cells, and the journalled decision log.
"""

import pytest

from repro.node.storage import (
    NO_FLOOR,
    LogEntry,
    LogTruncated,
    StorageEngine,
)

from tests.node.reference_snapshot import reference_snapshot


def drive(store):
    """One scripted mixed workload over the copy table."""
    store.place("x", initial=0, date=None, size=10, version="v0")
    store.place("y", initial="seed", date=(1, 1), size=3, version="v1")
    out = []
    out.append(store.read("x"))
    store.write("x", 11, (2, 1), "v2")
    store.write("x", 12, (2, 2), "v3")
    out.append(store.read("x"))
    out.append(store.peek("y"))
    store.install("y", "recovered", (3, 1), "v4")
    out.append((store.date("y"), store.version("y"), store.size("y")))
    # apply_log: stale entry ignored, newer applied, None-dated ignored
    applied = store.apply_log("y", [
        LogEntry((2, 9), "stale", "v-old"),
        LogEntry(None, "undated", "v-none"),
        LogEntry((4, 1), "newest", "v5"),
    ])
    out.append(applied)
    out.append(store.log_since("x", None))
    out.append(store.log_since("x", (2, 1)))
    out.append(store.log_since("y", (3, 1)))
    out.append(store.read("y"))
    out.append((store.holds("x"), store.holds("nope")))
    out.append(sorted(store.local_objects))
    return out


def test_scripted_drive_output_is_pinned():
    assert drive(StorageEngine(1)) == [
        (0, None),
        (12, (2, 2)),
        ("seed", (1, 1)),
        ((3, 1), "v4", 3),
        1,
        [LogEntry(None, 0, "v0"), LogEntry((2, 1), 11, "v2"),
         LogEntry((2, 2), 12, "v3")],
        [LogEntry((2, 2), 12, "v3")],
        [LogEntry((4, 1), "newest", "v5")],
        ("newest", (4, 1)),
        (True, False),
        ["x", "y"],
    ]


def test_copy_table_errors():
    store = StorageEngine(1)
    store.place("x", initial=0)
    with pytest.raises(KeyError):
        store.place("x", initial=1)  # double placement
    with pytest.raises(KeyError):
        store.read("missing")
    with pytest.raises(ValueError):
        store.place("tiny", size=0)


@pytest.mark.parametrize("knobs", [{"log_retain": 0},
                                   {"checkpoint_every": -1}], ids=str)
def test_out_of_range_knobs_are_refused(knobs):
    with pytest.raises(ValueError):
        StorageEngine(1, **knobs)


def test_every_mutation_is_journalled():
    engine = StorageEngine(1)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1), "v1")
    engine.install("x", 2, (2, 1), "v2")
    engine.apply_log("x", [LogEntry((3, 1), 3, "v3")])
    kinds = [record.kind for record in engine.wal]
    assert kinds == ["place", "write", "install", "apply"]
    assert engine.stats.wal_appends == 4
    assert engine.stats.forced_syncs == 0  # none of these force
    # reads journal nothing
    engine.read("x")
    assert engine.stats.wal_appends == 4


def test_apply_log_journals_exactly_the_applied_entries():
    engine = StorageEngine(1)
    engine.place("x", initial=0, date=(3, 1))
    applied = engine.apply_log("x", [
        LogEntry((2, 9), "stale", "v-old"),
        LogEntry(None, "undated", "v-none"),
        LogEntry((4, 1), "newer", "v4"),
        LogEntry((4, 1), "repeat", "v4"),   # no longer newer: skipped
        LogEntry((5, 1), "newest", "v5"),
    ])
    assert applied == 2
    assert [(r.kind, r.value) for r in engine.wal] == [
        ("place", 0), ("apply", "newer"), ("apply", "newest")]
    assert engine.rebuilt().snapshot() == engine.snapshot()


@pytest.mark.parametrize("entries, applied, held", [
    ([LogEntry(None, "undated", "v-none"), LogEntry((1, 1), 1, "v1")],
     [("apply", 1)], (1, (1, 1), "v1")),
    ([LogEntry(None, "undated", "v-none")], [], (0, None, None)),
], ids=["then-dated", "alone"])
def test_apply_log_skips_undated_entries_on_a_never_written_copy(
        entries, applied, held):
    """A requester whose copy was never written asks ``log_since(obj,
    None)`` and gets the source's undated placement entry back: it is
    skipped like any other undated entry, not installed over the copy."""
    engine = StorageEngine(1)
    engine.place("x", initial=0)
    assert engine.apply_log("x", entries) == len(applied)
    assert [(r.kind, r.value) for r in engine.wal][1:] == applied
    assert (*engine.peek("x"), engine.version("x")) == held


def test_force_write_points_are_counted():
    engine = StorageEngine(1)
    engine.record_prepare("t1", objects={"x"})
    engine.record_decision("t1", "commit")
    engine.record_decision("t2", "undecided", forced=False)
    engine.write_cell("max-id", 0, forced=False)
    engine.write_cell("max-id", 7)  # a max-id bump is forced
    assert engine.stats.forced_syncs == 3  # prepare, commit, cell bump
    assert engine.stats.wal_appends == 5   # + undecided + cell creation
    assert engine.snapshot().decisions == {"t1": "commit",
                                           "t2": "undecided"}


def test_snapshot_is_pure_and_is_what_checkpoint_stores():
    engine = StorageEngine(1, log_retain=1)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1), "v1")
    engine.write_cell("max-id", (1, 1))
    engine.record_decision("t1", "commit")
    before = (len(engine.wal), engine.stats.checkpoints,
              engine.retained_entries(), engine.last_checkpoint)
    snap = engine.snapshot()
    assert snap == engine.snapshot()
    assert (len(engine.wal), engine.stats.checkpoints,
            engine.retained_entries(), engine.last_checkpoint) == before
    assert list(snap.copies) == ["x"] and snap.copies["x"].obj == "x"
    assert snap.cells == {"max-id": (1, 1)}
    assert snap.decisions == {"t1": "commit"}
    stored = engine.checkpoint(compact=False)
    assert stored.state == snap and stored.lsn == engine.wal.tail_lsn
    assert stored is engine.last_checkpoint
    # a compacting checkpoint stores the trimmed logs and their floors
    compacted = engine.checkpoint().state
    assert compacted == engine.snapshot()
    assert compacted != snap


def test_checkpoint_truncates_wal_and_rebuild_roundtrips():
    engine = StorageEngine(1)
    engine.place("x", initial=0, size=5)
    engine.write("x", 1, (1, 1), "v1")
    engine.write_cell("max-id", (1, 1))
    engine.record_decision("t1", "commit")
    engine.checkpoint()
    assert len(engine.wal) == 0  # prefix captured by the snapshot
    engine.write("x", 2, (2, 1), "v2")   # the replay tail
    engine.record_decision("t2", "abort")
    rebuilt = engine.rebuilt()
    assert rebuilt.snapshot() == engine.snapshot()
    assert rebuilt.stats.replayed_records == 2
    assert rebuilt.stats.replayed_bytes > 0
    assert rebuilt.cell("max-id") == (1, 1)
    assert rebuilt.snapshot().decisions == {"t1": "commit", "t2": "abort"}


def test_rebuild_from_empty_checkpoint_is_pure_replay():
    engine = StorageEngine(1)
    engine.place("x", initial="a", date=None, version="v0")
    engine.write("x", "b", (1, 1), "v1")
    rebuilt = engine.rebuilt()
    assert rebuilt.snapshot() == engine.snapshot()
    assert rebuilt.stats.replayed_records == 2


def test_replay_does_not_recount_transaction_writes():
    engine = StorageEngine(1)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1))
    rebuilt = engine.rebuilt()
    # the materialized copy (incl. its log) matches; the replayed write
    # is redone, not journalled again as a new transaction write
    assert rebuilt.stats.wal_appends == 0
    assert rebuilt.peek("x") == engine.peek("x")
    assert rebuilt.log_since("x", None) == engine.log_since("x", None)


def test_compaction_sets_floor_and_refuses_deep_log_reads():
    engine = StorageEngine(1, log_retain=2)
    engine.place("x", initial=0)           # seed entry, date=None
    for n in range(1, 5):
        engine.write("x", n, (n, 1), f"v{n}")
    assert engine.retained_entries() == 5
    engine.checkpoint()                    # compacts to the newest 2
    assert engine.retained_entries() == 2
    assert engine.stats.compacted_entries == 3
    assert engine.snapshot().copies["x"].floor == (2, 1)
    # at/above the floor: answered exactly
    assert [e.value for e in engine.log_since("x", (2, 1))] == [3, 4]
    assert [e.value for e in engine.log_since("x", (3, 1))] == [4]
    # below the floor (or the full history): refused, not partial
    with pytest.raises(LogTruncated):
        engine.log_since("x", (1, 1))
    with pytest.raises(LogTruncated):
        engine.log_since("x", None)
    assert engine.stats.truncated_reads == 2


def test_none_dated_floor_still_answers_dated_queries():
    engine = StorageEngine(1, log_retain=2)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1), "v1")
    engine.write("x", 2, (2, 1), "v2")
    engine.checkpoint()  # discards only the None-dated seed entry
    assert engine.snapshot().copies["x"].floor is None
    # a None-dated entry is never part of a dated answer, so any dated
    # ``after`` is still served exactly...
    assert [e.value for e in engine.log_since("x", (0, 0))] == [1, 2]
    # ...but the full history is gone
    with pytest.raises(LogTruncated):
        engine.log_since("x", None)


def test_compaction_floor_survives_rebuild():
    engine = StorageEngine(1, log_retain=1)
    engine.place("x", initial=0)
    for n in range(1, 4):
        engine.write("x", n, (n, 1))
    engine.checkpoint()
    engine.write("x", 9, (9, 1))  # tail past the checkpoint
    rebuilt = engine.rebuilt()
    assert rebuilt.snapshot().copies["x"].floor == (2, 1)
    with pytest.raises(LogTruncated):
        rebuilt.log_since("x", (1, 1))
    assert rebuilt.snapshot() == engine.snapshot()


def test_auto_checkpoint_fires_by_append_count():
    engine = StorageEngine(1, checkpoint_every=3)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1))
    assert engine.stats.checkpoints == 0
    engine.write("x", 2, (2, 1))  # third append triggers
    assert engine.stats.checkpoints == 1
    assert len(engine.wal) == 0
    assert engine.last_checkpoint.lsn == 3


def test_an_engine_checkpoints_every_500_appends_unless_told_never():
    default, never = StorageEngine(1), StorageEngine(1, checkpoint_every=0)
    for engine in (default, never):
        engine.place("x", initial=0)
        for n in range(1, 500):  # 500 appends with the placement
            engine.write("x", n, (n, 1))
    assert (default.stats.checkpoints, len(default.wal)) == (1, 0)
    assert (never.stats.checkpoints, len(never.wal)) == (0, 500)


def test_an_engine_without_write_logs_keeps_and_freezes_none():
    """``keep_log=False`` (the cluster's full-copy catch-up): writes,
    installs and applies append no entry, checkpoints and compaction
    carry none, and a log read is refused as truncated."""
    engine = StorageEngine(1, checkpoint_every=0, log_retain=1, keep_log=False)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1), "v1")
    engine.install("x", 2, (2, 1), "v2")
    engine.apply_log("x", [LogEntry((3, 1), 3, "v3")])
    assert engine.retained_entries() == 0
    assert [r.kind for r in engine.wal] == ["place", "write", "install", "apply"]
    stored = engine.checkpoint()
    assert stored.state.copies["x"].log is None
    assert stored.state.copies["x"].floor is NO_FLOOR
    assert engine.stats.compacted_entries == 0
    assert engine.rebuilt().snapshot() == reference_snapshot(engine)
    with pytest.raises(LogTruncated):
        engine.log_since("x", (1, 1))
    assert engine.stats.truncated_reads == 1
    assert (*engine.peek("x"), engine.version("x")) == (3, (3, 1), "v3")


def test_uncompacted_engine_has_no_floor():
    engine = StorageEngine(1)
    engine.place("x", initial=0)
    engine.write("x", 1, (1, 1))
    engine.checkpoint()  # no log_retain: no compaction
    assert engine.snapshot().copies["x"].floor is NO_FLOOR
    assert len(engine.log_since("x", None)) == 2


def test_retire_drops_copy_and_floor_and_replays():
    engine = StorageEngine(1, log_retain=1)
    engine.place("x", initial=0)
    engine.place("y", initial=0)
    engine.write("x", 1, (1, 1))
    engine.checkpoint()  # x's seed entry is compacted away: a floor
    assert engine.snapshot().copies["x"].floor is None
    engine.retire("x")   # the replay tail: retire, then a fresh placement
    assert not engine.holds("x")
    assert "x" not in engine.snapshot().copies
    with pytest.raises(KeyError):
        engine.retire("x")
    engine.place("x", initial=5, date=(2, 1))
    rebuilt = engine.rebuilt()
    assert rebuilt.snapshot() == engine.snapshot()
    assert rebuilt.log_since("x", None) == [LogEntry((2, 1), 5)]


# -- the snapshot fold: work bound, trims, aliasing --------------------------

def test_compaction_refreezes_a_copy_the_tail_does_not_name():
    """A copy can be over ``log_retain`` with an empty WAL tail (here:
    after an uncompacted checkpoint).  Compaction still finds it, and the
    trimmed copy is re-frozen although no record names it.  Fails when
    ``trimmed`` is left out of the names ``_advanced`` re-freezes."""
    engine = StorageEngine(1, log_retain=2)
    engine.place("x", initial=0)
    engine.place("quiet", initial=0)
    for n in range(1, 6):
        engine.write("x", n, (n, 1), f"v{n}")
    stale = engine.checkpoint(compact=False).state
    assert len(engine.wal) == 0 and len(stale.copies["x"].log) == 6
    stored = engine.checkpoint().state       # no write in between
    assert engine.stats.compacted_entries == 4
    assert engine.retained_entries() == 3    # x's newest 2 + quiet's seed
    assert engine.snapshot().copies["x"].floor == (3, 1)
    assert stored == reference_snapshot(engine) == engine.snapshot()
    assert [e.value for e in stored.copies["x"].log] == [4, 5]
    assert stored.copies["x"].floor == (3, 1)
    assert stored.copies["quiet"] is stale.copies["quiet"]
    with pytest.raises(LogTruncated):
        engine.log_since("x", (2, 1))
    assert engine.rebuilt().snapshot() == stored


def _refrozen_by_a_small_change(copies, cells, decisions):
    """Checkpoint an engine holding ``copies`` copies, ``cells`` cells
    and ``decisions`` decisions, write 3 objects, set 2 cells, log 2
    decisions, checkpoint again: the entries of the second snapshot that
    are not the first one's objects.  No automatic checkpoint runs in
    between, so the first image's cells and decisions are one layer."""
    engine = StorageEngine(1, checkpoint_every=0, log_retain=8)
    for n in range(copies):
        engine.place(f"o{n}", initial=n, date=(0, 1))
    for n in range(cells):
        engine.write_cell(f"px:{n}", (n, n), forced=False)
    for n in range(decisions):
        engine.record_decision(f"t{n}", "undecided", forced=False)
    old = engine.checkpoint().state
    touched = {"o1", f"o{copies // 2}", f"o{copies - 1}"}
    for obj in sorted(touched):
        engine.write(obj, "new", (1, 1), "v1")
    engine.write_cell("px:0", (9, 9))
    engine.write_cell(f"px:{cells - 1}", (9, 9))
    engine.record_decision("t0", "commit")
    engine.record_decision(f"t{decisions}", "abort")
    new = engine.checkpoint().state
    assert new == reference_snapshot(engine)
    assert set(new.copies) == set(old.copies) and len(new.copies) == copies
    fresh_copies = {obj for obj in new.copies
                    if new.copies[obj] is not old.copies[obj]}
    fresh_cells = {name for name in new.cells
                   if new.cells[name] is not old.cells[name]}
    assert fresh_copies == touched
    assert fresh_cells == {"px:0", f"px:{cells - 1}"}
    # the newest layer is what was written since; the older layers are
    # the previous image's own, so every older entry is its object
    assert new.cells.maps[0] == {"px:0": (9, 9), f"px:{cells - 1}": (9, 9)}
    assert new.decisions.maps[0] == {"t0": "commit", f"t{decisions}": "abort"}
    for layered, previous in ((new.cells, old.cells),
                              (new.decisions, old.decisions)):
        assert all(a is b for a, b in zip(layered.maps[1:], previous.maps, strict=True))
    return len(fresh_copies) + len(fresh_cells)


def test_a_checkpoint_refreezes_only_what_changed_since_the_last():
    """O(changed), asserted by identity: every untouched entry of the
    new snapshot *is* the previous snapshot's object, and the number of
    re-frozen entries does not move when the clean state grows 4x.
    Fails under any from-scratch freeze (e.g. an empty base)."""
    assert _refrozen_by_a_small_change(600, 5000, 1500) == 5
    assert _refrozen_by_a_small_change(2400, 20000, 6000) == 5


def test_checkpoint_layers_stay_logarithmic():
    """One new cell and decision per checkpoint, 1 024 times: a layer
    merges into the one below once it is as large, like a binary
    counter's carry, so the image stays a handful of layers (not one per
    checkpoint) and still equals the full walk."""
    engine = StorageEngine(1, checkpoint_every=0)
    for n in range(1024):
        engine.write_cell(f"c{n}", n, forced=False)
        engine.record_decision(f"t{n}", "commit")
        engine.checkpoint()
        if n % 100 == 0:
            engine.checkpoint()  # an empty delta adds no lasting layer
    state = engine.last_checkpoint.state
    assert len(state.cells.maps) <= 12 and len(state.decisions.maps) <= 12
    assert state == reference_snapshot(engine)


def _copy_of(snap):
    """An independent copy of a snapshot (its entries are immutable)."""
    return type(snap)(dict(snap.copies), dict(snap.cells),
                      dict(snap.decisions))


def test_stored_snapshots_share_no_mutable_state_with_the_engine():
    """Fails when ``_advanced`` reuses a mapping of its base (or the
    live decision log) instead of copying it, and when ``freeze`` keeps
    the copy's log list."""
    engine = StorageEngine(1, log_retain=2)
    engine.place("x", initial=0)
    engine.place("y", initial=0)
    engine.write_cell("max-id", (0, 1), forced=False)
    engine.record_decision("t1", "undecided", forced=False)
    previous = engine.checkpoint().state
    engine.write("x", 1, (1, 1), "v1")
    current = engine.checkpoint().state
    was_previous = _copy_of(previous)
    was_current = _copy_of(current)
    assert isinstance(current.copies["x"].log, tuple)
    # mutate the live engine every way there is
    for n in range(2, 6):
        engine.write("x", n, (n, 1), f"v{n}")
    engine.retire("y")
    engine.write_cell("max-id", (7, 1))
    engine.write_cell("px:t1:1", "yes", forced=False)
    engine.record_decision("t1", "commit")
    engine.record_decision("t2", "abort")
    assert engine.last_checkpoint.state is current
    assert current == was_current and previous == was_previous
    # ... and a returned snapshot is the caller's to scribble on
    scratch = engine.snapshot()
    scratch.copies.clear()
    scratch.cells["max-id"] = None
    scratch.decisions["t9"] = "commit"
    assert current == was_current
    assert engine.snapshot() == reference_snapshot(engine)
    # taking the next checkpoint leaves the one before it whole too
    engine.checkpoint()
    assert current == was_current and previous == was_previous
