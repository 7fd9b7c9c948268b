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

must be exactly 0.
"""

from dataclasses import replace

import pytest

from ledger.__main__ import SMOKE_SCALE
from ledger.workloads import build
from repro.workload.runner import run_experiment

COPIES = 5


def residual(result) -> dict:
    kinds, m = result.network["by_kind"], result.metrics
    bill = {"read": m.logical_reads, "read-reply": m.logical_reads,
            "write": COPIES * m.logical_writes,
            "write-reply": COPIES * m.logical_writes}
    return {kind: kinds.get(kind, 0) - count for kind, count in bill.items()}


def assert_bill_holds(spec) -> None:
    assert spec.processors == COPIES and spec.copies_per_object is None
    result = run_experiment(spec)
    assert result.metrics.logical_reads and result.metrics.logical_writes
    assert residual(result) == dict.fromkeys(
        ("read", "read-reply", "write", "write-reply"), 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["steady-rw", "read-lease"])
def test_the_walks_send_one_request_per_access(workload, seed):
    assert_bill_holds(build(workload, seed, SMOKE_SCALE))


@pytest.mark.parametrize("protocol", ["rowa", "naive-view"])
def test_the_baselines_share_the_bill(protocol):
    assert_bill_holds(replace(build("steady-rw", 1, SMOKE_SCALE),
                              protocol=protocol))
