"""Every forced write of a failure-free 2PC run, accounted for.

Presumed abort forces a writing share's prepare record and the
decision of a commit that wrote, and nothing else: no read-only share's
prepare, no read-only commit's decision, no abort.  So on the two
failure-free 2PC workloads of the ledger, at smoke size, the storage
counter must equal the bill

    sum over committed transactions that wrote of (writing shares + 1)
    + the prepare records of aborted transactions
    + one ``max-id`` record per processor (the boot partition's)

with a residual of exactly 0.  A writing share is a processor that
served one of the transaction's physical writes (read off ``History``'s
record stream); every prepare record must come from one.
"""

from collections import Counter, defaultdict

import pytest

from ledger.__main__ import SMOKE_SCALE
from ledger.workloads import build
from repro.analysis.history import History, PhysicalOp
from repro.node.storage.engine import StorageEngine
from repro.workload.runner import run_experiment


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["steady-rw", "read-lease"])
def test_forced_writes_are_the_presumed_abort_bill(workload, seed, monkeypatch):
    writers = defaultdict(set)
    prepares = Counter()
    cells = Counter()
    record, record_prepare = History.record, StorageEngine.record_prepare
    write_cell = StorageEngine.write_cell

    def recording(history, fact):
        if type(fact) is PhysicalOp and fact.kind == "w":
            writers[fact.txn].add(fact.copy_pid)
        record(history, fact)

    def counting_prepare(engine, txn, objects=None):
        assert engine.pid in writers[txn], f"p{engine.pid} forced a read-only prepare"
        prepares[txn] += 1
        record_prepare(engine, txn, objects)

    def counting_cell(engine, name, value, forced=True):
        cells[name] += forced
        write_cell(engine, name, value, forced)

    monkeypatch.setattr(History, "record", recording)
    monkeypatch.setattr(StorageEngine, "write_cell", counting_cell)
    monkeypatch.setattr(StorageEngine, "record_prepare", counting_prepare)
    result = run_experiment(build(workload, seed, SMOKE_SCALE))
    status = {txn: r.status for txn, r in result.cluster.history.txns.items()}
    committed = [txn for txn, s in status.items() if s == "committed" and writers[txn]]
    bill = (sum(len(writers[txn]) + 1 for txn in committed)
            + sum(n for txn, n in prepares.items() if status[txn] == "aborted"))
    assert cells == Counter({"max-id": len(result.cluster.pids)})
    forced = result.registry.snapshot()["counters"]["storage.forced_syncs"]
    assert committed and forced - bill - cells["max-id"] == 0
    assert all(prepares[txn] == len(writers[txn]) for txn in committed)
