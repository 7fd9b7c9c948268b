"""E2 — Figure 2 / Tables 1–2 / Example 2: the stale-view cycle.

Regenerates the paper's second counterexample: after re-partitioning
{A,B}|{C,D} → {B,C}|{A,D} with only B and D updating their views, the
four Table-2 transactions all commit under the naive protocol using
only local copies, forming a reads-from cycle (serializable, not 1SR).
Under the virtual partitions protocol property S3 makes the cycle
impossible: some transactions abort, the rest are 1SR.
"""

from __future__ import annotations

from repro.workload.scenarios import run_example2_naive, run_example2_vp
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

SMOKE: dict = {}


def run() -> dict:
    # in-process: two fixed scripted scenarios, not a spec sweep.
    naive = run_example2_naive(seed=0)
    vp = run_example2_vp(seed=0)
    rows = [
        ["naive-view", len(naive.committed), len(naive.aborted),
         naive.cp_serializable, naive.one_copy.ok],
        ["virtual-partitions", len(vp.committed), len(vp.aborted),
         vp.cp_serializable, vp.one_copy.ok],
    ]
    report(render_table(
        ["protocol", "committed", "aborted", "CP-serializable",
         "one-copy SR"],
        rows,
        title="E2  Example 2 (Fig. 2, Tables 1-2): re-partition with "
              "asynchronous view updates, weighted copies",
    ))
    report(f"naive-view 1SR cycle: {naive.one_copy.violation}")
    emit_metrics("example2", {
        f"{label}.{metric}": value
        for label, outcome in (("naive", naive), ("vp", vp))
        for metric, value in (
            ("committed", len(outcome.committed)),
            ("aborted", len(outcome.aborted)),
            ("one_copy_ok", int(outcome.one_copy.ok)),
        )
    })
    return {"naive": naive, "vp": vp}


def test_benchmark_example2(benchmark):
    results = run_once(benchmark, run)
    naive, vp = results["naive"], results["vp"]
    assert len(naive.committed) == 4
    assert naive.cp_serializable and naive.one_copy.ok is False
    assert vp.one_copy.ok is True
    assert len(vp.committed) < 4  # availability traded for correctness


if __name__ == "__main__":
    bench_main("bench_example2", run, smoke=SMOKE)
