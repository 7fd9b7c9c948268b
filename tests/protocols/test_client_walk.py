"""The client walks' message bill: one request per counted access.

On a failure-free run with full replication, Fig. 10's read-one walk
sends one ``read`` per logical read (the nearest copy answers) and
Fig. 11's write-all walk one ``write`` per copy, five per logical
write; every request is answered.  The transaction counts each logical
access as it enters, so on the ledger's two failure-free full-replica
workloads at smoke size — and on ``steady-rw`` under the baselines
that share the walks — the residual of

    read = read-reply = logical reads,
    write = write-reply = 5 × logical writes

must be exactly 0.  Quorum and majority gather r = 3 and w = 3 of the
five votes through the same walk: each logical read sends r ``read``s,
each blind write r more (its version collect) and each write w
``write``s.  The identity holds only while no copy refuses (a refusal
widens the quorum), so their runs give every client objects of its own.
"""

from dataclasses import replace

import pytest

from ledger.__main__ import SMOKE_SCALE
from ledger.workloads import build
from repro.workload.generator import PrivateObjects
from repro.workload.runner import run_experiment

COPIES = 5


def residual(result, r=1, w=COPIES, blind=0) -> dict:
    """Messages sent per kind minus the bill of r reads per logical read
    and per blind write, and w writes per logical write."""
    kinds, m = result.network["by_kind"], result.metrics
    reads, writes = r * (m.logical_reads + blind), w * m.logical_writes
    bill = {"read": reads, "read-reply": reads,
            "write": writes, "write-reply": writes}
    return {kind: kinds.get(kind, 0) - count for kind, count in bill.items()}


ZERO = dict.fromkeys(("read", "read-reply", "write", "write-reply"), 0)


def assert_bill_holds(spec) -> None:
    assert spec.processors == COPIES and spec.copies_per_object is None
    result = run_experiment(spec)
    assert result.metrics.logical_reads and result.metrics.logical_writes
    assert residual(result) == ZERO


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["steady-rw", "read-lease"])
def test_the_walks_send_one_request_per_access(workload, seed):
    assert_bill_holds(build(workload, seed, SMOKE_SCALE))


@pytest.mark.parametrize("protocol", ["rowa", "naive-view"])
def test_the_baselines_share_the_bill(protocol):
    assert_bill_holds(replace(build("steady-rw", 1, SMOKE_SCALE),
                              protocol=protocol))


def blind_writes(history) -> int:
    """Logical writes to an object their transaction had not accessed."""
    count = 0
    for record in history.committed():
        seen = set()
        for op in record.logical_ops:
            count += op.kind == "w" and op.obj not in seen
            seen.add(op.obj)
    return count


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", ["quorum", "majority"])
def test_quorum_walks_send_r_reads_and_w_writes(protocol, seed):
    spec = build("steady-rw", seed, SMOKE_SCALE)
    spec = replace(spec, protocol=protocol,
                   objects_for=PrivateObjects(spec.clients))
    result = run_experiment(spec)
    m = result.metrics
    assert result.aborted == 0 and not m.by_reason
    r, w = result.cluster.protocol(1).thresholds("o0")
    assert (r, w) == (3, 3)
    blind = blind_writes(result.cluster.history)
    assert m.logical_reads and blind
    assert residual(result, r, w, blind) == ZERO
    assert m.version_collect_rpcs == r * blind
