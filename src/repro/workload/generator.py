"""Synthetic transaction workloads.

The paper's cost argument is parameterized by the read/write mix
("reads outnumber writes") and failure rarity; the generator produces
transaction bodies over a keyspace with a configurable read fraction,
object-selection skew, and transaction size, plus a Poisson arrival
process to drive open-loop experiments.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Sequence, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a transaction mix."""

    read_fraction: float = 0.9
    ops_per_txn: int = 2
    zipf_s: float = 0.0  # 0 = uniform object choice
    #: mean inter-arrival time of transactions per processor
    mean_interarrival: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {self.read_fraction}")
        if self.ops_per_txn < 1:
            raise ValueError("transactions need at least one operation")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")


@dataclass(frozen=True)
class PrivateObjects:
    """An ``ExperimentSpec.objects_for`` pool: two objects of its own
    for each of a processor's ``clients``, so no two clients conflict.
    Plain data — a spec carrying it crosses the ``run_many`` process
    boundary."""

    clients: int

    def __call__(self, pid: int, client: int) -> List[str]:
        base = ((pid - 1) * self.clients + client) * 2
        return [f"o{base}", f"o{base + 1}"]


class WorkloadGenerator:
    """Draws transaction programs according to a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, objects: Sequence[str],
                 rng: random.Random):
        if not objects:
            raise ValueError("need at least one object")
        self.spec = spec
        self.objects = list(objects)
        self.rng = rng
        self._weights = self._zipf_weights()
        self._cdf = list(accumulate(self._weights))

    def _zipf_weights(self) -> List[float]:
        if self.spec.zipf_s == 0:
            return [1.0] * len(self.objects)
        return [1.0 / (rank ** self.spec.zipf_s)
                for rank in range(1, len(self.objects) + 1)]

    def pick_object(self) -> str:
        """One object, uniform or zipf-skewed.

        Inverse-CDF sampling over a *precomputed* cumulative table —
        one ``rng.random()`` and a bisect per draw (``random.choices``
        draws identically but re-accumulates the weights every call,
        which is O(n) per object on sharded keyspaces of thousands).
        The draw sequence is bit-identical to ``rng.choices(objects,
        weights, k=1)`` under the same rng state.
        """
        point = self.rng.random() * self._cdf[-1]
        return self.objects[bisect(self._cdf, point,
                                   0, len(self.objects) - 1)]

    def next_program(self) -> List[Tuple[str, str]]:
        """A transaction program: a list of ``("r"|"w", obj)`` steps.

        Objects within one transaction are distinct (sampled without
        replacement) to keep lock ordering simple and deadlocks rare —
        deadlock behaviour is exercised separately by the cc tests.
        """
        count = min(self.spec.ops_per_txn, len(self.objects))
        if self.spec.zipf_s == 0:
            chosen = self.rng.sample(self.objects, count)
        else:
            chosen = []
            while len(chosen) < count:
                obj = self.pick_object()
                if obj not in chosen:
                    chosen.append(obj)
        return [
            ("r" if self.rng.random() < self.spec.read_fraction else "w", obj)
            for obj in sorted(chosen)
        ]

    def next_interarrival(self) -> float:
        """Exponential inter-arrival time."""
        return self.rng.expovariate(1.0 / self.spec.mean_interarrival)


def body_for(program: Sequence[Tuple[str, str]],
             tag: str = "") -> Callable:
    """Turn a program into a transaction body for ``TransactionManager.run``.

    Writes store a fresh unique value derived from what was read (or the
    step index), so every write is distinguishable to the checkers.
    """

    def body(txn):
        result = None
        for index, (kind, obj) in enumerate(program):
            if kind == "r":
                result = yield from txn.read(obj)
            else:
                yield from txn.write(obj, f"{tag}#{txn.txn_id}/{index}")
        return result

    return body
