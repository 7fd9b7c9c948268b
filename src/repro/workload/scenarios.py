"""The paper's example scenarios, staged exactly.

These builders reproduce the two counterexamples of §4 under any
protocol, with the failure timing pinned to the instants the paper's
narrative requires.  The anomaly tests and ``bench_example1.py`` /
``bench_example2.py`` run them twice — once under
:class:`~repro.protocols.naive_view.NaiveViewProtocol` (expecting a
one-copy serializability violation) and once under the virtual
partitions protocol (expecting correctness under identical timing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..analysis.one_copy import OneCopyResult, check_one_copy
from ..analysis.serialization import CopyOrder, is_cp_serializable
from ..cluster import Cluster
from ..net.nemesis import FaultAction, apply_schedule
from ..protocols.naive_view import NaiveViewProtocol

#: processor names used in the paper's figures
A, B, C, D = 1, 2, 3, 4


@dataclass
class ScenarioOutcome:
    """What a staged scenario produced."""

    cluster: Cluster
    copies: CopyOrder  # the physical ops the CP check read
    committed: List[Any]
    aborted: List[Any]
    one_copy: OneCopyResult
    cp_serializable: bool
    final_values: Dict[Tuple[str, int], Any]

    @property
    def lost_update(self) -> bool:
        """Example 1's symptom: two increments, all copies at 1."""
        values = {v for (obj, _pid), v in self.final_values.items()
                  if obj == "x"}
        return values == {1}


def _collect_outcome(cluster: Cluster, copies: CopyOrder,
                     objects) -> ScenarioOutcome:
    final = {}
    for obj in objects:
        for pid in cluster.placement.copies(obj):
            value, _date = cluster.processor(pid).store.peek(obj)
            final[(obj, pid)] = value
    history = cluster.history
    return ScenarioOutcome(
        cluster=cluster,
        copies=copies,
        committed=[r.txn for r in history.committed()],
        aborted=[r.txn for r in history.aborted()],
        one_copy=check_one_copy(history),
        cp_serializable=is_cp_serializable(copies),
        final_values=final,
    )


def _increment_body(obj: str):
    def body(txn):
        value = yield from txn.read(obj)
        yield from txn.write(obj, value + 1)
        return value
    return body


def run_example1_naive(seed: int = 0, trace: bool = False) -> ScenarioOutcome:
    """Example 1 under the naive protocol: the lost increment.

    Fig. 1's graph — A·B cut, both connected to C — gives
    view(A)={A,C}, view(B)={B,C}, view(C)={A,B,C}: every processor
    sees a majority of x's three copies.  A increments x using its
    local copy, then B increments x using *its* (still-initial) local
    copy.  Both commit; the update is lost; the execution is
    serializable but not one-copy serializable.
    """
    cluster = Cluster(processors=3, seed=seed, protocol=NaiveViewProtocol,
                      trace=trace)
    copies = CopyOrder(cluster.history)
    cluster.place("x", holders=[A, B, C], initial=0)
    cluster.start()
    for pid in cluster.pids:
        cluster.protocol(pid).auto_refresh = False
    cluster.graph.cut_link(A, B)
    for pid in cluster.pids:
        cluster.protocol(pid).refresh_view()  # A3 taken literally

    first = cluster.submit(A, _increment_body("x"))
    cluster.run(until=30.0)
    second = cluster.submit(B, _increment_body("x"))
    cluster.run(until=60.0)
    assert first.value[0] and second.value[0], "both increments must commit"
    return _collect_outcome(cluster, copies, ["x"])


def run_example1_vp(seed: int = 0, retries: int = 40,
                    backoff: float = 4.0,
                    trace: bool = False) -> ScenarioOutcome:
    """Example 1's failure under the virtual partitions protocol.

    Same non-transitive graph and the same two increment transactions
    (with retries, since partition churn may abort attempts).  The
    protocol serializes the partitions, so the second increment reads
    the first one's value through C's copy and no update is lost.
    """
    cluster = Cluster(processors=3, seed=seed, trace=trace)
    copies = CopyOrder(cluster.history)
    cluster.place("x", holders=[A, B, C], initial=0)
    cluster.start()
    apply_schedule(cluster.injector,
                   [FaultAction(2.0, "cut", (A, B), math.inf)])

    first = cluster.submit(A, _increment_body("x"), retries=retries,
                           backoff=backoff)
    cluster.run(until=250.0)
    second = cluster.submit(B, _increment_body("x"), retries=retries,
                            backoff=backoff)
    cluster.run(until=500.0)
    assert first.value[0] and second.value[0], (
        f"increments must eventually commit: {first.value}, {second.value}"
    )
    return _collect_outcome(cluster, copies, ["x"])


#: Table 2's copy placement: superscript 2 = weight 2
EXAMPLE2_PLACEMENT = {
    "a": {A: 2, D: 1},
    "b": {B: 2, A: 1},
    "c": {C: 2, B: 1},
    "d": {D: 2, C: 1},
}

#: Table 2's transactions: processor -> (read object, write object)
EXAMPLE2_TXNS = {A: ("b", "a"), B: ("c", "b"), C: ("d", "c"), D: ("a", "d")}


def _read_write_body(read_obj: str, write_obj: str, tag: str):
    def body(txn):
        value = yield from txn.read(read_obj)
        yield from txn.write(write_obj, f"{tag}-wrote-{write_obj}")
        return value
    return body


def run_example2_naive(seed: int = 0, trace: bool = False) -> ScenarioOutcome:
    """Example 2 under the naive protocol: the stale-view cycle.

    The system starts partitioned {A,B} | {C,D} and re-partitions to
    {B,C} | {A,D} (Fig. 2).  B and D update their views immediately;
    A and C still hold the old views (Table 1).  Each processor then
    runs its Table 2 transaction, each touching only local copies.
    All four commit; the execution is serializable but the reads-from
    cycle T_A→T_B→T_C→T_D→T_A makes it non-1SR.
    """
    cluster = Cluster(processors=4, seed=seed, protocol=NaiveViewProtocol,
                      trace=trace)
    copies = CopyOrder(cluster.history)
    for obj, holders in EXAMPLE2_PLACEMENT.items():
        cluster.place(obj, holders=holders, initial=f"{obj}0")
    cluster.start()
    for pid in cluster.pids:
        cluster.protocol(pid).auto_refresh = False

    cluster.graph.partition([{A, B}, {C, D}])
    for pid in cluster.pids:
        cluster.protocol(pid).refresh_view()
    cluster.run(until=5.0)
    # Re-partition; only B and D notice (Table 1's intermediate state).
    cluster.graph.partition([{B, C}, {A, D}])
    cluster.protocol(B).refresh_view()
    cluster.protocol(D).refresh_view()

    outcomes = []
    for pid, (read_obj, write_obj) in sorted(EXAMPLE2_TXNS.items()):
        outcomes.append(cluster.submit(
            pid, _read_write_body(read_obj, write_obj, f"T{pid}")
        ))
        cluster.run(until=cluster.sim.now + 20.0)
    assert all(done.value[0] for done in outcomes), (
        "all four Table-2 transactions must commit under the naive protocol"
    )
    return _collect_outcome(cluster, copies, list(EXAMPLE2_PLACEMENT))


def run_example2_vp(seed: int = 0, retries: int = 40,
                    backoff: float = 4.0,
                    trace: bool = False) -> ScenarioOutcome:
    """Example 2's re-partition under the virtual partitions protocol.

    Identical placement, partition timing, and transaction programs.
    S3 forces every processor in a new partition's view to depart its
    old partition before anyone joins, so the Table-2 cycle cannot
    form: whatever commits is one-copy serializable.
    """
    cluster = Cluster(processors=4, seed=seed, trace=trace)
    copies = CopyOrder(cluster.history)
    for obj, holders in EXAMPLE2_PLACEMENT.items():
        cluster.place(obj, holders=holders, initial=f"{obj}0")
    cluster.start()
    # the re-partition at 121: the first partition's hold ends there
    apply_schedule(cluster.injector, [
        FaultAction(2.0, "partition", ((A, B), (C, D)), 119.0)])
    cluster.run(until=120.0)
    apply_schedule(cluster.injector, [
        FaultAction(121.0, "partition", ((B, C), (A, D)), math.inf)])

    outcomes = {}
    for pid, (read_obj, write_obj) in sorted(EXAMPLE2_TXNS.items()):
        outcomes[pid] = cluster.submit(
            pid, _read_write_body(read_obj, write_obj, f"T{pid}"),
            retries=retries, backoff=backoff,
        )
    cluster.run(until=700.0)
    return _collect_outcome(cluster, copies, list(EXAMPLE2_PLACEMENT))
