"""E1 — Figure 1 / Example 1: the lost increment on a non-transitive graph.

Regenerates the paper's first counterexample as a measured run: under
the naive view-based majority protocol both increments of x commit and
one update is lost (serializable, not 1SR); under the virtual
partitions protocol, with identical connectivity, both increments
survive and the execution is 1SR.
"""

from __future__ import annotations

from repro.workload.scenarios import run_example1_naive, run_example1_vp
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report, run_once

SMOKE: dict = {}


def run() -> dict:
    # in-process: two fixed scripted scenarios, not a spec sweep.
    naive = run_example1_naive(seed=0)
    vp = run_example1_vp(seed=0)
    rows = [
        ["naive-view", len(naive.committed), len(naive.aborted),
         naive.cp_serializable, naive.one_copy.ok,
         max(naive.final_values.values()), naive.lost_update],
        ["virtual-partitions", len(vp.committed), len(vp.aborted),
         vp.cp_serializable, vp.one_copy.ok,
         max(vp.final_values.values()), vp.lost_update],
    ]
    report(render_table(
        ["protocol", "committed", "aborted", "CP-serializable",
         "one-copy SR", "final x", "lost update"],
        rows,
        title="E1  Example 1 (Fig. 1): two increments, A-B link cut, "
              "both reach C",
    ))
    report(f"naive-view 1SR cycle: {naive.one_copy.violation}")
    emit_metrics("example1", {
        f"{label}.{metric}": value
        for label, outcome in (("naive", naive), ("vp", vp))
        for metric, value in (
            ("committed", len(outcome.committed)),
            ("aborted", len(outcome.aborted)),
            ("one_copy_ok", int(outcome.one_copy.ok)),
            ("lost_update", int(outcome.lost_update)),
        )
    })
    return {"naive": naive, "vp": vp}


def test_benchmark_example1(benchmark):
    results = run_once(benchmark, run)
    naive, vp = results["naive"], results["vp"]
    # The paper's qualitative claims, as assertions:
    assert naive.lost_update and naive.one_copy.ok is False
    assert naive.cp_serializable  # serializable, yet wrong
    assert not vp.lost_update and vp.one_copy.ok is True


if __name__ == "__main__":
    bench_main("bench_example1", run, smoke=SMOKE)
