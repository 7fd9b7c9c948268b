"""Property: the folded snapshot equals the from-scratch reference.

``StorageEngine.snapshot`` re-freezes only what the WAL tail names (and
what compaction trimmed) on top of the last checkpoint's state.  Random
operation sequences — every journalled mutation, manual and automatic
checkpoints with and without compaction, and recovery by ``rebuilt()``
— hold it equal, step by step, to ``reference_snapshot``: the old full
walk over every copy, cell and decision.  Every compacting checkpoint,
one right after ``rebuilt()`` included, must also trim exactly what a
trim over every copy would: compaction visits only the logs that grew
since the last one.

One-line mutations of ``engine.py`` this test was seen to fail under:

* a retired object is not dropped (``copies.pop`` removed);
* a trimmed-but-clean copy is not re-frozen (``trimmed`` left out of
  the names);
* cell names are ignored (the cell loop removed);
* ``rebuilt()`` closes from an empty tail (the journal fork, or the
  adoption of the source's checkpoint, removed);
* the re-frozen copy shares its log list with the live copy
  (``log=copy.log`` in ``freeze``);
* a rebuilt engine starts with no grown logs (``_grown = set()`` in
  ``rebuilt()``), or replay does not mark the logs it extends.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.node.storage import LogEntry, StorageEngine

from tests.node.reference_snapshot import reference_snapshot

OBJECTS = ("a", "b", "c")
CELLS = ("max-id", "px:t1:1")
#: cells only read (never written: None); ``cell_set`` writes the second
FRESH = ("px:t2:1", "px:t1:1")
TXNS = ("t1", "t2", "t3")
OUTCOMES = ("undecided", "commit", "abort")
#: ``write`` twice: logs must outgrow ``log_retain`` for trims to happen
OPS = ("place", "write", "write", "install", "apply_log", "retire",
       "cell_create", "cell_read", "cell_set", "record_prepare", "record_decision",
       "checkpoint", "checkpoint_uncompacted", "rebuilt")


class Driven:
    """An engine under test plus the reference state of its last
    checkpoint, captured at the moment the checkpoint was taken."""

    def __init__(self, retain, every):
        self.clock = 0
        self.retain = retain
        self.adopt(StorageEngine(1, checkpoint_every=every,
                                 log_retain=retain))

    def adopt(self, engine):
        self.engine = engine
        # fresh: the empty checkpoint; rebuilt: its closing checkpoint
        self.stored = reference_snapshot(engine)
        take = engine.checkpoint

        def checkpoint(compact=True):
            # also reached from inside ``_journal``, mid-operation
            logs = [copy.log or () for copy in engine._copies.values()]
            trims = compact and self.retain is not None
            due = sum(max(0, len(log) - self.retain) for log in logs) if trims else 0
            before = engine.stats.compacted_entries
            taken = take(compact)
            assert engine.stats.compacted_entries - before == due
            if trims:
                assert all(len(log) <= self.retain for log in logs)
            self.stored = reference_snapshot(engine)
            return taken

        engine.checkpoint = checkpoint

    def tick(self):
        self.clock += 1
        return (self.clock, 1)

    def step(self, op, i, j):
        engine, obj = self.engine, OBJECTS[i]
        if op == "place":
            if not engine.holds(obj):  # incl. re-place after retire
                engine.place(obj, initial=j, date=None if j else self.tick(),
                             size=j + 1, version=f"p{self.clock}")
        elif op in ("write", "install"):
            if engine.holds(obj):
                getattr(engine, op)(obj, j, self.tick(), f"v{self.clock}")
        elif op == "apply_log":
            if engine.holds(obj):
                stale = LogEntry((0, 1), "stale", "v-old")
                fresh = [LogEntry(self.tick(), n, f"a{self.clock}")
                         for n in range(j + 1)]
                engine.apply_log(obj, [stale, LogEntry(None, "undated"),
                                       *fresh])
        elif op == "retire":
            if engine.holds(obj):
                engine.retire(obj)
        elif op == "cell_create":  # unless it holds a value already
            if engine.cell(CELLS[i % 2]) is None:
                engine.write_cell(CELLS[i % 2], (j, 0), forced=False)
        elif op == "cell_read":  # journals nothing
            engine.cell(FRESH[i % 2])
        elif op == "cell_set":
            engine.write_cell(CELLS[i % 2], self.tick())
        elif op == "record_prepare":
            engine.record_prepare(TXNS[i], OBJECTS[:j + 1])
        elif op == "record_decision":
            engine.record_decision(TXNS[i], OUTCOMES[j], forced=bool(j))
        elif op == "checkpoint":
            engine.checkpoint()
        elif op == "checkpoint_uncompacted":
            engine.checkpoint(compact=False)
        elif op == "rebuilt":
            self.adopt(engine.rebuilt())

    def check(self):
        engine = self.engine
        assert engine.snapshot() == reference_snapshot(engine)
        assert engine.last_checkpoint.state == self.stored
        rebuilt = engine.rebuilt()
        assert rebuilt.snapshot() == engine.snapshot()
        assert rebuilt.last_checkpoint.state == reference_snapshot(rebuilt)
        assert len(rebuilt.wal) == 0


#: a log over ``retain`` that only a rebuilt engine can find: kept by an
#: uncompacted checkpoint, or rebuilt by replaying the WAL tail
OVER_RETAIN_ACROSS_A_REBUILD = (
    [("place", 0, 1), ("write", 0, 0), ("write", 0, 0),
     ("checkpoint_uncompacted", 0, 0), ("rebuilt", 0, 0), ("checkpoint", 0, 0)],
    [("place", 0, 1), ("write", 0, 0), ("write", 0, 0),
     ("rebuilt", 0, 0), ("checkpoint", 0, 0)],
)


@settings(max_examples=300, deadline=None)
@example(retain=1, every=0, steps=OVER_RETAIN_ACROSS_A_REBUILD[0])
@example(retain=1, every=0, steps=OVER_RETAIN_ACROSS_A_REBUILD[1])
@given(retain=st.sampled_from([None, 1, 3]),
       every=st.sampled_from([0, 3]),
       steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2),
                                st.integers(0, 2)), max_size=40))
def test_folded_snapshot_equals_the_reference_walk(retain, every, steps):
    driven = Driven(retain, every)
    driven.check()
    for op, i, j in steps:
        driven.step(op, i, j)
        driven.check()
