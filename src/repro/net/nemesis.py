"""Nemesis: planned fault schedules.

Two planners draw a schedule of :class:`FaultAction` records.
``plan_crash_repair`` is the paper's "failures are rare" model:
memoryless crash/repair cycles per processor and cut/heal cycles per
link.  ``plan_nemesis`` is the full adversarial fault model: crashes,
symmetric and directed cuts, delay surges, grey-loss bursts,
duplication storms, link flapping, and whole partitions, composed in
bursts.

The design splits *planning* from *application*.  A planner draws a
complete schedule up front from its own RNG — a plain, picklable,
JSON-able list.  ``apply_schedule`` then installs the schedule on a
:class:`FailureInjector` deterministically, with zero further
randomness.  That split is what makes campaigns
shrinkable: the hunter can delete actions from the list and replay the
remainder bit-for-bit, which an online random process cannot offer.

A hand-written scenario is a schedule too: every injected fault is a
``FaultAction``.  Every applied action holds its faults under its own
ownership claim, unique to the injector, so overlapping actions
compose: an action's undo releases only its own claim, never a fault
another action still wants in place.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from typing import List, Optional, Sequence, Tuple

from .failures import Action, FailureInjector

#: action kinds a nemesis can draw, in canonical order
KINDS = ("crash", "cut", "oneway", "surge", "grey", "dup", "flap", "partition")


@dataclass(frozen=True)
class FaultAction:
    """One fault: do something at ``time``, undo at ``time + hold``
    (never, for ``hold=math.inf``).

    ``args`` is kind-specific:

    * ``crash``: ``(pid,)``
    * ``cut`` / ``oneway``: ``(a, b)`` (directed for ``oneway``)
    * ``surge``: ``(src, dst, factor)``
    * ``grey`` / ``dup``: ``(src, dst, prob)``
    * ``flap``: ``(a, b, period, cycles)`` — ``hold`` is ignored; the
      flap ends itself after ``2 * period * cycles``
    * ``partition``: ``(block, ...)`` — imposed as pairwise inter-block
      cuts under this action's claim, so it composes and undoes cleanly
    """

    time: float
    kind: str
    args: Tuple
    hold: float

    def to_dict(self) -> dict:
        return {"time": self.time, "kind": self.kind,
                "args": list(self.args), "hold": self.hold}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultAction":
        args = tuple(
            tuple(x) if isinstance(x, list) else x for x in data["args"]
        )
        return cls(time=data["time"], kind=data["kind"],
                   args=args, hold=data["hold"])


@dataclass
class NemesisMix:
    """Relative weights and intensity ranges for the fault classes."""

    crash: float = 1.0
    cut: float = 1.0
    oneway: float = 1.0
    surge: float = 1.0
    grey: float = 1.0
    dup: float = 0.5
    flap: float = 0.5
    partition: float = 0.5
    #: latency multiplier range for delay surges
    surge_factor: Tuple[float, float] = (3.0, 8.0)
    #: loss probability range for grey-loss bursts
    loss_prob: Tuple[float, float] = (0.3, 0.9)
    #: duplication probability range for dup storms
    dup_prob: Tuple[float, float] = (0.2, 0.6)
    #: flap half-period range (time units) and cycle-count range
    flap_period: Tuple[float, float] = (1.0, 4.0)
    flap_cycles: Tuple[int, int] = (2, 5)

    def weights(self) -> dict:
        return {k: getattr(self, k) for k in KINDS}


def plan_nemesis(rng: random.Random, pids: Sequence[int],
                 mix: Optional[NemesisMix] = None,
                 horizon: float = 300.0, start: float = 10.0,
                 mean_gap: float = 20.0, burst: Tuple[int, int] = (1, 3),
                 mean_hold: float = 15.0) -> list:
    """Draw a complete fault schedule.

    Fault instants arrive as a Poisson-ish process from ``start`` with
    mean inter-arrival ``mean_gap``; each instant fires a burst of 1–N
    simultaneous actions (the paper's Fig. 2 scenario — a re-partition
    *while* another fault is still in effect — needs overlap, which
    bursts plus multi-unit holds provide).  Every action self-heals
    after an exponential hold with mean ``mean_hold``.
    """
    mix = mix or NemesisMix()
    pids = sorted(pids)
    if len(pids) < 2:
        raise ValueError("a nemesis needs at least two processors")
    kinds = [k for k, w in mix.weights().items() if w > 0]
    weights = [mix.weights()[k] for k in kinds]
    actions = []
    t = start
    while t < horizon:
        for _ in range(rng.randint(*burst)):
            kind = rng.choices(kinds, weights)[0]
            hold = min(1.0 + rng.expovariate(1.0 / mean_hold), horizon - t)
            actions.append(_draw_action(rng, kind, pids, mix, t, hold))
        t += 1.0 + rng.expovariate(1.0 / mean_gap)
    return actions


def plan_crash_repair(rng: random.Random, pids: Sequence[int],
                      node_mttf: float = 0.0, node_mttr: float = 50.0,
                      link_mttf: float = 0.0, link_mttr: float = 50.0,
                      *, horizon: float) -> list:
    """Draw memoryless crash/repair and cut/heal cycles up to ``horizon``.

    Each processor crashes after an exponential time with mean
    ``node_mttf`` and is repaired after one with mean ``node_mttr``;
    links are cut and healed likewise (a zero MTTF switches that class
    off).  "Failures are rare" in the paper's cost analysis is an MTTF
    much larger than both the probe period π and transaction latency.
    A repair may land past ``horizon``; no fault starts at or after it.

    The draws come off ``rng`` in the order of the instants they belong
    to, whichever element they are for — the order a process per
    element, all sharing ``rng``, would make them in as the clock
    advances.
    """
    rates = {"node_mttf": node_mttf, "node_mttr": node_mttr,
             "link_mttf": link_mttf, "link_mttr": link_mttr}
    for name, value in rates.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if not horizon < float("inf"):
        raise ValueError(f"a plan needs a finite horizon: {horizon}")
    pids = sorted(pids)
    elements = []  # (kind, args, mttf, mttr)
    if node_mttf > 0:
        elements += [("crash", (p,), node_mttf, node_mttr) for p in pids]
    if link_mttf > 0:
        elements += [("cut", (a, b), link_mttf, link_mttr)
                     for a in pids for b in pids if a < b]
    # (instant, push order, element, repaired?): an element waits either
    # to fail or, once repaired, to draw its next failure; equal instants
    # wake in push order, as the kernel's timeouts would
    order = count()
    wakes = [(rng.expovariate(1.0 / element[2]), next(order), element, False)
             for element in elements]
    heapify(wakes)
    actions = []
    while wakes:
        t, _, element, repaired = heappop(wakes)
        if t >= horizon:
            continue
        kind, args, mttf, mttr = element
        if repaired:
            t += rng.expovariate(1.0 / mttf)
        else:
            hold = rng.expovariate(1.0 / mttr)
            actions.append(FaultAction(time=t, kind=kind, args=args,
                                       hold=hold))
            t += hold
        heappush(wakes, (t, next(order), element, not repaired))
    return actions


def _draw_action(rng: random.Random, kind: str, pids: Sequence[int],
                 mix: NemesisMix, t: float, hold: float) -> FaultAction:
    if kind == "crash":
        args: Tuple = (rng.choice(pids),)
    elif kind in ("cut", "oneway"):
        args = tuple(rng.sample(pids, 2))
    elif kind == "surge":
        src, dst = rng.sample(pids, 2)
        args = (src, dst, round(rng.uniform(*mix.surge_factor), 3))
    elif kind == "grey":
        src, dst = rng.sample(pids, 2)
        args = (src, dst, round(rng.uniform(*mix.loss_prob), 3))
    elif kind == "dup":
        src, dst = rng.sample(pids, 2)
        args = (src, dst, round(rng.uniform(*mix.dup_prob), 3))
    elif kind == "flap":
        a, b = rng.sample(pids, 2)
        args = (a, b, round(rng.uniform(*mix.flap_period), 3),
                rng.randint(*mix.flap_cycles))
    elif kind == "partition":
        shuffled = list(pids)
        rng.shuffle(shuffled)
        split = rng.randint(1, len(shuffled) - 1)
        args = (tuple(sorted(shuffled[:split])),
                tuple(sorted(shuffled[split:])))
    else:  # pragma: no cover - planner and KINDS list move together
        raise ValueError(f"unknown fault kind: {kind}")
    return FaultAction(time=t, kind=kind, args=args, hold=hold)


def apply_schedule(injector: FailureInjector, actions: Sequence[FaultAction],
                   ) -> List[Tuple[Action, str]]:
    """Install a planned schedule on ``injector`` — fully deterministic.

    Each action does its fault at ``time`` and undoes it at ``time +
    hold`` under a claim of its own, unique to the injector, so
    overlapping actions on the same element compose instead of healing
    each other early.  A permanent fault has ``hold=math.inf`` and no
    undo on the queue.  Transport perturbations (surge/grey/dup) are
    last-writer-wins per route — they are probabilistic noise, not
    safety-bearing state.  The whole schedule is validated first, so a
    malformed action raises with nothing on the kernel's queue.

    Returns each action's undo as a ``(fn, label)`` pair: a caller that
    learns an action's end only mid-run applies it with an infinite
    hold and later schedules ``injector.at(time, *undo)``.
    """
    for action in actions:
        _validate(injector, action)
    undos = []
    for action in actions:
        do, undo = _do_undo(injector, action, next(injector._actors))
        t = action.time
        if action.kind == "flap":
            period, cycles = action.args[2:]
            for c in range(cycles):
                injector.at(t + 2 * c * period, *do)
                injector.at(t + (2 * c + 1) * period, *undo)
        else:
            injector.at(t, *do)
            if action.hold < math.inf:
                injector.at(t + action.hold, *undo)
        undos.append(undo)
    return undos


#: kind -> length of ``args``; a partition takes any number of blocks
_ARITY = {"crash": 1, "cut": 2, "oneway": 2, "surge": 3, "grey": 3,
          "dup": 3, "flap": 4}


def _validate(injector: FailureInjector, action: FaultAction) -> None:
    """Reject an action ``apply_schedule`` cannot install — a schedule may
    come from an artifact file, which is outside input."""
    kind, args = action.kind, action.args
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind: {kind}")
    if kind == "partition":
        if len(args) < 2 or not all(isinstance(b, tuple) and b for b in args):
            raise ValueError(f"a partition takes 2+ non-empty tuples: {args}")
        pids = [pid for block in args for pid in block]
    elif len(args) != _ARITY[kind]:
        raise ValueError(f"{kind} takes {_ARITY[kind]} args: {args}")
    else:
        pids = args[:1] if kind == "crash" else args[:2]
    # a self-edge, overlapping blocks or an unknown pid would raise mid-run
    if len(set(pids)) < len(pids) or not injector.graph.nodes >= set(pids):
        raise ValueError(f"{kind} names a pid twice or one not in the "
                         f"graph: {args}")
    if kind == "flap":
        period, cycles = args[2:]
        if not period > 0:
            raise ValueError(f"flap period must be positive: {period}")
        if not (isinstance(cycles, int) and cycles >= 1):
            raise ValueError(f"flap needs at least one cycle: {cycles}")
    if not action.hold >= 0:
        raise ValueError(f"hold must be non-negative: {action.hold}")
    if action.time < injector.sim.now:
        raise ValueError(f"time {action.time} is in the past "
                         f"(now={injector.sim.now})")
    if kind in ("surge", "grey", "dup"):
        injector._network()  # raises unless the injector has a transport


def _do_undo(injector: FailureInjector, action: FaultAction, actor: int):
    """The ``(fn, label)`` pairs that do and undo ``action`` under
    ``actor``'s claim (a flap's are one cut and its heal)."""
    kind, args = action.kind, action.args
    if kind == "crash":
        (pid,) = args
        return ((lambda: injector._crash(pid, actor), f"crash({pid})"),
                (lambda: injector._recover(pid, actor), f"recover({pid})"))
    if kind in ("cut", "flap"):
        a, b = args[:2]
        name = "flap-" if kind == "flap" else ""
        return ((lambda: injector._cut(a, b, actor), f"{name}cut({a},{b})"),
                (lambda: injector._heal(a, b, actor), f"{name}heal({a},{b})"))
    if kind == "oneway":
        a, b = args
        return ((lambda: injector._cut_oneway(a, b, actor),
                 f"cut-oneway({a},{b})"),
                (lambda: injector._heal_oneway(a, b, actor),
                 f"heal-oneway({a},{b})"))
    if kind == "partition":
        pairs = [(a, b) for i, block in enumerate(args) for a in block
                 for other in args[i + 1:] for b in other]

        def impose():
            for a, b in pairs:
                injector._cut(a, b, actor)

        def release():
            for a, b in pairs:
                injector._heal(a, b, actor)

        return ((impose, f"partition({list(map(list, args))})"),
                (release, "partition-end"))
    src, dst, value = args  # surge, grey, dup
    net = injector._network()
    start, end = {"surge": (net.set_delay_surge, net.clear_delay_surge),
                  "grey": (net.set_grey_loss, net.clear_grey_loss),
                  "dup": (net.set_dup_storm, net.clear_dup_storm)}[kind]
    return ((lambda: start(src, dst, value), f"{kind}({src},{dst},{value})"),
            (lambda: end(src, dst), f"{kind}-end({src},{dst})"))
