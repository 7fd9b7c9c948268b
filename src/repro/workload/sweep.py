"""Parameter sweeps over experiment specs.

Every sweep shape builds its full spec list up front and hands it to
:func:`~repro.workload.parallel.run_many`, so one ``workers=N``
argument parallelizes all of them.  ``workers=1`` (the default) is the
plain serial path; parallel runs return results identical to it, in
the same order — each child owns its own seeded simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .parallel import run_many
from .runner import ExperimentResult, ExperimentSpec, with_paths


def sweep(base: ExperimentSpec, axis: str, values: Sequence[Any],
          workers: int = 1) -> List[Tuple[Any, ExperimentResult]]:
    """Run ``base`` once per value of ``axis``.

    ``axis`` is any dotted :class:`ExperimentSpec` path — ``retries``,
    ``workload.read_fraction``, ``session.lease_duration`` (see
    :func:`~repro.workload.runner.with_paths`).
    """
    values = list(values)
    specs = [with_paths(base, {axis: value}) for value in values]
    return list(zip(values, run_many(specs, workers=workers)))


def sweep_protocols(base: ExperimentSpec, protocols: Sequence[str],
                    workers: int = 1) -> Dict[str, ExperimentResult]:
    """Run the identical workload under each protocol (paired seeds)."""
    return dict(sweep(base, "protocol", protocols, workers=workers))

