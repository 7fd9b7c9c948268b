"""Compare two run documents with the benchmark's own bounds.

Sim-clock metrics are exact for a seed, so they are diffed exactly: any
difference is real and is reported by its direction.  Host-clock
metrics are medians over reps; a pair whose rep-to-rep spread (the
inter-quartile distance as a share of the median) exceeds the metric's
bound is ``unresolved`` rather than ``same``.
"""

from __future__ import annotations

import statistics

from .run import HOST_UNITS, declared


def spread(values: list) -> float:
    """Inter-quartile distance of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(before: dict, after: dict) -> list:
    """One row per (workload, end-to-end metric) of two run documents."""
    rows = []
    theirs = {record["workload"]: record for record in after["workloads"]}
    for ours in before["workloads"]:
        other = theirs.get(ours["workload"])
        if other is None:
            continue
        for name, entry in declared("end_to_end").items():
            a, b = ours["end_to_end"][name], other["end_to_end"][name]
            gain = (b - a) / a * (1 if entry["better"] == "higher" else -1)
            row = {"workload": ours["workload"], "metric": name,
                   "unit": entry["unit"], "before": a, "after": b,
                   "gain": gain, "bound": entry["bound"]}
            if entry["unit"] in HOST_UNITS:
                row["spread"] = max(spread(ours["samples"][name]),
                                    spread(other["samples"][name]))
                if row["spread"] > entry["bound"]:
                    row["verdict"] = "unresolved"
                elif gain < -entry["bound"]:
                    row["verdict"] = "worse"
                elif gain > row["spread"]:
                    row["verdict"] = "better"
                else:
                    row["verdict"] = "same"
            else:
                row["spread"] = 0.0
                row["verdict"] = ("same" if a == b
                                  else "better" if gain > 0 else "worse")
            rows.append(row)
    return rows


def agrees(row: dict) -> bool:
    """Do two runs of the same code agree on this row?

    Sim-clock values must be identical; host-clock medians must lie
    within the metric's bound of each other, whichever way.
    """
    if row["unit"] in HOST_UNITS:
        return abs(row["gain"]) <= row["bound"]
    return row["before"] == row["after"]


def print_rows(rows: list) -> None:
    print(f"{'workload':14s} {'metric':26s} {'before':>12s} {'after':>12s} "
          f"{'gain':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:26s} "
              f"{row['before']:12.5g} {row['after']:12.5g} "
              f"{row['gain']:+8.2%} {row['spread']:7.2%} "
              f"{row['bound']:6.0%}  {row['verdict']}")
