"""ASCII tables for benchmark reports.

The benchmark harness prints results in the same shape the paper's
claims are stated (who wins, by what factor, where crossovers fall);
these helpers keep that output consistent across benches.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """A boxed, aligned ASCII table."""
    grid = [list(map(format_cell, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in grid:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells, pad=" "):
        return "| " + " | ".join(
            cell.ljust(width, pad) for cell, width in zip(cells, widths)
        ) + " |"

    separator = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = []
    if title:
        out.append(title)
    out.append(separator)
    out.append(line(headers))
    out.append(separator)
    for row in grid:
        out.append(line(row))
    out.append(separator)
    return "\n".join(out)


def format_quantiles(summary: dict, quantiles: Sequence[str] = ("p50", "p99"),
                     ) -> str:
    """A compact ``p50/p99`` cell from a histogram ``summary()`` dict.

    Empty histograms render as ``-`` so latency columns stay readable
    in cells where nothing committed.
    """
    if not summary or not summary.get("count"):
        return "-"
    return "/".join(format_cell(float(summary.get(q, 0.0)))
                    for q in quantiles)
