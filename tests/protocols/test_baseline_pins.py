"""Exact pins of the five baselines on one crash-and-partition run.

The bench ``--check``s only assert relations between protocols, so a
drift in one baseline's counts would pass them.  These digests cover the
whole ``fingerprint()`` — committed/aborted, the 1SR verdict, every
protocol counter and ``by_reason`` string, network and registry totals.

History of the pins: the shared baseline skeleton moved none of them.
The "txn-lost" vote (a participant whose crash hook forgot the
transaction votes no) moved only missing-writes, from
``8b4630b50255098c`` (not 1SR) to the value below, which is 1SR.
Committing the baselines through ``TwoPhaseCommit`` (their own
prepare/release round deleted) moved all five — rowa from
``01366e42baebab8e``, quorum and majority from ``49d326b7949af0cb``,
missing-writes from ``69a93b013bb8d32d``, naive-view from
``ef6ffb8d21241e96`` — by adding the forced prepare and decision
records, the decide watchdogs and, under these crashes, the in-doubt
rules (``txn-status`` queries; an in-doubt copy keeps its write across
a crash).  Sending the ``txn-status`` query as a one-target scatter
call (the call path every request/reply now takes) moved all five again
— rowa from ``807036d4db56554c``, quorum and majority from
``cf3ac8af644bd260``, missing-writes from ``1a6630724f7fb94a``,
naive-view from ``547099c4e5bd5fbb`` — in ``transport.*`` alone: the
queries now count as fan-outs, requests and (to a crashed
coordinator) silences.  Deleting the transport's global slow-message
knob moved all five — rowa from ``3ef6988cd05261f5``, quorum and
majority from ``6a8548a08a0da57a``, missing-writes from
``60f52480d1b0bfda``, naive-view from ``f28e1f8fb133362d`` — by
dropping its always-zero count (``network["slow"]``, ``msg.slow``)
alone: the old fingerprint minus those two keys hashes to the new pin.
Keeping a copy's write log only under ``catchup="log"`` moved all five
— rowa from ``b111e86724963fec``, quorum and majority from
``5d46e171f59dd070``, missing-writes from ``3f92eed7724eb9db``,
naive-view from ``686921d961c8a47d`` — in the
``storage.retained_entries`` gauge alone (320, 109, 109, 200 and 279
entries, now 0): the old and new fingerprints minus that key are
equal.  No engine here reaches the default 500 appends of a
checkpoint, so ``storage.checkpoints`` stays 0.  Presumed abort's
forcing rules (no prepare record for a share that wrote nothing, an
abort or a read-only commit unforced) moved all five — rowa from
``4d5245f34aa48b38``, quorum and majority from ``29b79af2c4bb4103``,
missing-writes from ``309955a5f6bf49c4``, naive-view from
``f8fe9a74bec9d8bf`` — in ``storage.forced_syncs`` and
``storage.wal_appends`` alone (rowa 213 → 120 forced, quorum and
majority 216 → 72, missing-writes 225 → 140, naive-view 353 → 161).
Journalling 2PC's "undecided" open no more moved all five — rowa from
``1080cb7d205f6f76``, quorum and majority from ``2ff94240b4063583``,
missing-writes from ``39a3801f56318838``, naive-view from
``3d7352a66d90ec70`` — in ``storage.wal_appends`` (rowa 480 → 460,
quorum and majority 266 → 218, missing-writes 381 → 349, naive-view
484 → 453); the one client walk moved rowa and naive-view also in
``by_reason`` (2 aborts each from ``cc-timeout`` to ``no-response``:
a write failing at several copies is named after its first failing
target, as Fig. 11's walk always named it, where the old baseline
loop preferred a refusal).
naive-view is not 1SR by design (the §4 strawman).
"""

import hashlib
import json

import pytest

from repro.net import FaultAction
from repro.workload.failures import ScheduledNemesis
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

PINS = {
    "rowa": ("6b2dcdd43d40b419", True),
    "quorum": ("41a5298d340f7c13", True),
    "majority": ("41a5298d340f7c13", True),
    "missing-writes": ("4a7d985be38d4f18", True),
    "naive-view": ("34dbc52f7d0c8f11", False),
}


def spec(protocol: str) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=protocol, processors=5, objects=8, seed=3, duration=300,
        workload=WorkloadSpec(read_fraction=0.8, mean_interarrival=4.0),
        retries=1, check=True,
        failures=ScheduledNemesis((
            FaultAction(60.0, "partition", ((1, 2, 3), (4, 5)), 80.0),
            FaultAction(90.0, "crash", (2,), 3.0),
            FaultAction(200.0, "crash", (4,), 30.0))),
    )


@pytest.mark.parametrize("protocol", sorted(PINS))
def test_fingerprint_is_pinned(protocol):
    result = run_experiment(spec(protocol))
    encoded = json.dumps(result.fingerprint(), sort_keys=True, default=repr)
    digest = hashlib.sha256(encoded.encode()).hexdigest()[:16]
    assert (digest, result.one_copy_ok) == PINS[protocol]
