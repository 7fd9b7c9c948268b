"""Property: the storage engine is cost-transparent at default policy.

One trace pin and one paired-outcome check:

1. **Trace identity** — with zero storage costs and compaction off, a
   failure-laden seeded run produces a byte-identical trace to the
   pre-engine implementation (the golden hash below was captured
   before the refactor, and re-captured since — see its comment).
   Only the event families the engine added
   (``storage.*``, ``msg.late-reply``) are filtered before hashing —
   everything that existed before must be untouched, timestamps
   included.

2. **Outcome preservation** — turning the durability cost model and
   compaction *on* may shift timing (forced writes consume model time,
   compaction forces full-transfer catch-ups) but must not change what
   commits: same committed write tags, 1SR both ways.
"""

import hashlib
import json
from itertools import groupby

from repro.core.config import ProtocolConfig
from repro.net import FaultAction, apply_schedule
from repro.obs.export import write_jsonl
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import PrivateObjects, WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

PROCESSORS = 5
CLIENTS = 2
TXNS_PER_CLIENT = 4

#: sha256 of the canonical JSONL trace of `_spec`'s run, re-captured
#: when every injected fault became a ``FaultAction`` (was
#: ``68c0923d…d5305``): the old trace with its heal-all label mapped to
#: ``partition-end`` has this trace's tie-insensitive digest
GOLDEN_TRACE_SHA = \
    "4adf89e055641a85744d0304808e372e114d5a0b5347f00bd7a4cb0ed6d409e1"
#: the same trace's :func:`tie_insensitive_digest`: it moves only when
#: the events of some instant do, not when their order does
GOLDEN_TRACE_DIGEST = \
    "e9ab18e4d2cf622108423b842ae3b1adfecb12e77a5db5c0ac52916873a2c5b5"
#: event families added by this refactor, filtered before hashing
NEW_EVENT_FAMILIES = ("storage.", "msg.late-reply")


def tie_insensitive_digest(lines, labels=None) -> str:
    """sha256 of a chronological JSONL trace with ``seq`` stripped and
    each instant's lines sorted, so same-instant order does not count;
    ``labels`` renames ``fail.inject`` labels first (old → new)."""
    canonical = []
    for _, instant in groupby(map(json.loads, lines), key=lambda e: e["t"]):
        at_instant = []
        for event in instant:
            event.pop("seq", None)
            if labels and event["e"] == "fail.inject":
                event["label"] = labels.get(event["label"], event["label"])
            at_instant.append(json.dumps(event, sort_keys=True,
                                         separators=(",", ":")))
        canonical.extend(sorted(at_instant))
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()


def _spec(config, failures, read_fraction, trace=False):
    return ExperimentSpec(
        protocol="virtual-partitions", processors=PROCESSORS,
        objects=PROCESSORS * CLIENTS * 2, seed=7,
        duration=200.0, grace=60.0,
        workload=WorkloadSpec(read_fraction=read_fraction, ops_per_txn=2,
                              mean_interarrival=6.0),
        config=config,
        clients=CLIENTS, txns_per_client=TXNS_PER_CLIENT,
        objects_for=PrivateObjects(CLIENTS), failures=failures,
        retries=25, check=True, trace=trace,
    )


def _committed_write_tags(result):
    tags = set()
    for record in result.cluster.history.committed():
        for op in record.logical_ops:
            if op.kind == "w":
                tags.add(str(op.value).split("#")[0])
    return tags


def test_default_policy_is_trace_identical_to_pre_engine_run(tmp_path):
    """Partition + crash + recover + heal, every §6 optimization on."""
    schedule = ScheduledNemesis((
        FaultAction(30.0, "partition", ((1, 2, 3, 4), (5,)), 30.0),
        FaultAction(45.0, "crash", (2,), 25.0)))

    config = ProtocolConfig(delta=1.0, init_strategy="previous",
                            catchup="log", split_off_fastpath=True,
                            weakened_r4=True)
    result = run_experiment(_spec(config, schedule, read_fraction=0.3,
                                  trace=True))
    path = tmp_path / "trace.jsonl"
    write_jsonl(result.cluster.tracer.events, path)
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        etype = json.loads(line)["e"]
        if etype.startswith(NEW_EVENT_FAMILIES[0]) \
                or etype == NEW_EVENT_FAMILIES[1]:
            continue
        kept.append(line)
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA
    assert tie_insensitive_digest(kept) == GOLDEN_TRACE_DIGEST
    assert result.one_copy_ok is True
    # ...and the run exercised the engine: the journal was busy
    counters = result.registry.snapshot()["counters"]
    assert counters["storage.wal_appends"] > 0
    assert counters["storage.forced_syncs"] > 0


def test_the_digest_ignores_seq_and_same_instant_order_only():
    trace = ['{"e":"msg.send","seq":3,"t":1.0}\n',
             '{"e":"msg.recv","seq":4,"t":1.0}\n',
             '{"e":"fail.inject","label":"crash(2)","t":2.0}\n']
    swapped = ['{"e":"msg.recv","seq":7,"t":1.0}\n',
               '{"e":"msg.send","seq":8,"t":1.0}\n', trace[2]]
    assert tie_insensitive_digest(swapped) == tie_insensitive_digest(trace)
    later = [trace[0], trace[1].replace('1.0', '1.5'), trace[2]]
    assert tie_insensitive_digest(later) != tie_insensitive_digest(trace)
    renamed = trace[:2] + [trace[2].replace("crash(2)", "down(2)")]
    assert tie_insensitive_digest(renamed) != tie_insensitive_digest(trace)
    assert tie_insensitive_digest(trace, {"crash(2)": "down(2)"}) \
        == tie_insensitive_digest(renamed)


def test_durability_costs_and_compaction_preserve_outcomes():
    """Paired runs through a partition + heal: free/unbounded storage
    vs. priced forced writes with checkpointing and log compaction.
    Timing moves; the committed work and its serializability do not.
    Both run §6 log catch-up: only then do copies keep the write logs
    that compaction trims."""
    schedule = ScheduledNemesis((
        FaultAction(30.0, "partition", ((1, 2, 3, 4), (5,)), 30.0),))

    def config(costed):
        return ProtocolConfig(
            delta=1.0, catchup="log",
            storage_append_cost=0.05 if costed else 0.0,
            storage_sync_cost=0.2 if costed else 0.0,
            checkpoint_every=25 if costed else 0,
            log_retain=3 if costed else None,
        )

    free, priced = (
        run_experiment(_spec(config(costed), schedule, read_fraction=0.0))
        for costed in (False, True))
    expected = PROCESSORS * CLIENTS * TXNS_PER_CLIENT
    assert len(_committed_write_tags(free)) == expected
    assert _committed_write_tags(free) == _committed_write_tags(priced)
    assert free.one_copy_ok is True
    assert priced.one_copy_ok is True
    # the comparison is not vacuous: the priced run really paid
    paid = priced.registry.snapshot()
    assert paid["counters"]["storage.forced_syncs"] > 0
    assert paid["counters"]["storage.checkpoints"] > 0
    assert (paid["gauges"]["storage.retained_entries"]
            < free.registry.snapshot()["gauges"]["storage.retained_entries"])


def test_concurrent_initiations_with_forced_writes_converge():
    """Regression: the acceptor's max-id forced write must delay only
    its own acceptance, not the Monitor-VP-Creations loop.

    After a heal, several processors initiate new partitions in the
    same probe round.  A blocking sync in the monitor loop stacks one
    forced write per concurrent invitation onto later accepts, pushing
    them past ``invite_wait`` (which budgets exactly one) — views then
    shrink to a minority clique and re-form identically every round,
    a permanent livelock (seed 99 reproduced it: all five processors
    settled on view [4, 5] with 1-3 connected)."""
    from repro import Cluster

    config = ProtocolConfig(storage_append_cost=0.05, storage_sync_cost=0.2,
                            checkpoint_every=15, log_retain=3)
    cluster = Cluster(processors=5, seed=99, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    apply_schedule(cluster.injector, [
        FaultAction(20.0, "partition", ((1, 2, 3), (4, 5)), 70.0),
        FaultAction(40.0, "crash", (2,), 35.0)])

    def incr(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value + 1

    outcomes = []
    for index in range(12):
        outcomes.append(cluster.submit(1 + index % 3, incr,
                                       retries=10, backoff=5.0))
        cluster.sim.run(until=outcomes[-1])
    cluster.run(until=cluster.sim.now + 2 * cluster.config.liveness_bound)

    committed = sum(1 for o in outcomes if o.value and o.value[0])
    assert committed == 12  # the livelock starved 8 of these
    values = {pid: cluster.processor(pid).store.read("x")[0]
              for pid in cluster.pids}
    assert set(values.values()) == {12}
    views = {pid: tuple(sorted(cluster.protocol(pid).view))
             for pid in cluster.pids}
    assert set(views.values()) == {(1, 2, 3, 4, 5)}
    assert cluster.check_one_copy_serializable() is True
