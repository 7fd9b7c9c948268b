"""Guard the registry names the perf ledger reads.

``ledger/metrics.py`` reads several names with ``.get(name, 0)`` or
``.get(name, {})``, so a renamed counter or histogram would silently
read as zero there.  Each of the four ledger workloads runs here at the
CI ``--smoke`` scale and must publish every name the ledger reads,
under the kind it reads it from.
"""

import re
from pathlib import Path

import pytest

from ledger import metrics, workloads
from repro.workload import run_experiment

SMOKE_SCALE = 1 / 20

#: every registry name the ledger reads, with the kind it reads it as
LEDGER_NAMES = {
    "counters": {
        "transport.rpcs", "transport.fanouts", "transport.no_responses",
        "transport.late_replies", "storage.forced_syncs",
        "storage.wal_appends", "storage.checkpoints", "directory.hits",
        "directory.lookups", "client.cache.hits", "client.cache.misses",
        "client.lease_reads", "client.reads",
    },
    "gauges": {
        "storage.retained_entries", "protocol.vp_created",
        "protocol.recoveries", "protocol.transfer_units",
    },
    "histograms": {
        "client.txn_latency", "txn.in_doubt_dwell",
        "transport.fanout_latency",
    },
}

#: names only a run with a session tier (cache + leases) publishes
SESSION_NAMES = {"client.cache.hits", "client.cache.misses",
                 "client.lease_reads", "client.reads"}
SESSION_WORKLOADS = {"read-lease"}


def test_the_table_lists_every_name_the_ledger_reads():
    source = Path(metrics.__file__).read_text()
    reads = set(re.findall(
        r'(counters|gauges|histograms)(?:\[|\.get\(\s*)"([^"]+)"', source))
    listed = {(kind, name) for kind, names in LEDGER_NAMES.items()
              for name in names}
    assert reads == listed


@pytest.mark.parametrize("name", sorted(workloads.DURATION))
def test_each_workload_publishes_the_names_the_ledger_reads(name):
    spec = workloads.build(name, 1, SMOKE_SCALE)
    result = run_experiment(spec)
    snapshot = result.registry.snapshot()
    for kind, names in LEDGER_NAMES.items():
        for metric in names:
            if metric in SESSION_NAMES and name not in SESSION_WORKLOADS:
                continue
            assert metric in snapshot[kind], f"{name}: {kind} {metric}"
    assert snapshot["histograms"]["client.txn_latency"]["count"] > 0
    instants = (workloads.fault_instants(spec.failures.actions)
                if spec.failures is not None else [])
    rep = metrics.sim_metrics(result, issued=1, instants=instants)
    assert rep["programs"] == result.registry.snapshot()["histograms"][
        "client.txn_latency"]["count"]
