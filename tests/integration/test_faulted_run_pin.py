"""An exact pin of one faulted run on the view-change and recovery path.

The ledger's smoke-scale ``fault-churn`` ends before its first fault,
so its CI gates never see a view formed or a copy recovered.  This spec
has the ``fault-churn`` shape (5 nodes, 2 open-loop clients each, 40
objects, the auditor armed, no retries) cut to one fault cycle of the
same kinds: a partition into {1, 2, 3} | {4, 5}, held 40 ticks, then a
crash of node 2, held 25.  The digest covers the whole
``fingerprint()``, so a change on that path that claims to move no
sim-clock number is held to it.  Presumed abort's forcing rules moved
the pin from ``40daab64751dbb37`` in ``storage.forced_syncs`` (981 →
620), ``storage.wal_appends`` (2 568 → 2 220) and
``storage.checkpoints`` (4 → 0) alone.  Journalling 2PC's "undecided"
open no more moved it from ``247dde903dc36230`` in
``storage.wal_appends`` (2 220 → 2 108) alone.
"""

import hashlib
import json

from repro.net import FaultAction
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

PIN = "5123d0b9090090b3"

SPEC = ExperimentSpec(
    processors=5, clients=2, objects=40, seed=1, duration=160.0, grace=80.0,
    retries=0, audit=True, open_loop=True,
    workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=2,
                          mean_interarrival=4.0),
    failures=ScheduledNemesis((
        FaultAction(20.0, "partition", ((1, 2, 3), (4, 5)), 40.0),
        FaultAction(80.0, "crash", (2,), 25.0))),
)


def test_a_faulted_run_is_pinned():
    result = run_experiment(SPEC)
    assert result.metrics.vp_created > 0
    assert result.metrics.recoveries > 0
    assert result.audit_violations == ()
    encoded = json.dumps(result.fingerprint(), sort_keys=True, default=repr)
    assert hashlib.sha256(encoded.encode()).hexdigest()[:16] == PIN
