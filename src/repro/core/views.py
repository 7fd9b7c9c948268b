"""Copy placement, weights, and the accessibility test (rule R1).

``copies: L → P(P)`` from the paper, extended with the integer weights
that Example 2 and Gifford-style weighted voting need.  A logical object
is *accessible* from a view iff the copies on processors in the view
carry a strict majority of the object's total weight::

    accessible(l, A)  ⟺  2 * weight(copies of l on A)  >  total weight of l
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional


def weighted_majority(weights: Mapping[int, int], view: Iterable[int]) -> bool:
    """Rule R1: do ``view``'s copies hold a strict majority of ``weights``?"""
    members = set(view)
    in_view = sum(w for p, w in weights.items() if p in members)
    return 2 * in_view > sum(weights.values())


class CopyPlacement:
    """Where each logical object's copies live, and their weights."""

    def __init__(self):
        self._placement: Dict[str, Dict[int, int]] = {}
        self._sizes: Dict[str, int] = {}
        #: per-object placement epoch; absent entries are epoch 0, so a
        #: never-resharded placement carries no per-object state at all
        self._epochs: Dict[str, int] = {}
        #: migrations begun but not yet committed: {obj: new weights}
        self._pending: Dict[str, Dict[int, int]] = {}
        #: total number of committed placement flips (any object)
        self._flips: int = 0

    # -- declaration ------------------------------------------------------------

    def place(self, obj: str, holders: Mapping[int, int] | Iterable[int],
              size: int = 1,
              members: Optional[Iterable[int]] = None) -> None:
        """Declare the copies of ``obj``.

        ``holders`` is either a ``{pid: weight}`` mapping or an iterable
        of pids (all weight 1); holder order is preserved (policies put
        the primary copy first).  ``size`` is the transfer-cost unit
        used by the partition-initialization benchmarks.  With
        ``members`` given, every holder must be a known cluster member
        — a mistyped pid fails here with a clear message instead of as
        a bare ``KeyError`` deep in cluster setup.
        """
        weights = self._normalize(obj, holders)
        self._validate(obj, weights, size, members)
        self._placement[obj] = weights
        self._sizes[obj] = size

    def place_many(self, assignments: Mapping[str, Mapping[int, int]
                                              | Iterable[int]],
                   size: int = 1,
                   members: Optional[Iterable[int]] = None) -> None:
        """Declare many objects at once, all-or-nothing.

        Every assignment is validated *before* any is installed, so a
        bad entry cannot leave the placement half-built; all problems
        are reported together instead of one ``place`` failure at a
        time.  Each problem names its offending object, and holders are
        normalized exactly once so iterator-valued holder sets are not
        consumed by validation before install.
        """
        problems = []
        normalized: Dict[str, Dict[int, int]] = {}
        for obj, holders in assignments.items():
            try:
                weights = self._normalize(obj, holders)
                self._validate(obj, weights, size, members)
            except (KeyError, ValueError) as exc:
                problems.append(f"{obj!r}: {exc.args[0]}")
                continue
            normalized[obj] = weights
        if problems:
            if len(problems) == 1:
                raise ValueError(f"invalid placement for {problems[0]}")
            shown = "; ".join(problems[:5])
            more = len(problems) - 5
            suffix = f" (and {more} more)" if more > 0 else ""
            raise ValueError(
                f"invalid placement for {len(problems)} of "
                f"{len(assignments)} objects: {shown}{suffix}"
            )
        for obj, weights in normalized.items():
            self._placement[obj] = weights
            self._sizes[obj] = size

    def _validate(self, obj: str, weights: Dict[int, int],
                  size: int, members: Optional[Iterable[int]]) -> None:
        if obj in self._placement:
            raise KeyError(f"{obj!r} already placed")
        if size < 1:
            raise ValueError(f"size must be at least 1, got {size}")
        self._check_weights(obj, weights, members)

    def _check_weights(self, obj: str, weights: Dict[int, int],
                       members: Optional[Iterable[int]]) -> None:
        if not weights:
            raise ValueError(f"{obj!r} needs at least one copy")
        bad = sorted(p for p, w in weights.items() if w < 1)
        if bad:
            raise ValueError(
                f"copy weights must be positive integers; {obj!r} has "
                f"non-positive weights on processors {bad}"
            )
        if members is not None:
            known = set(members)
            strangers = sorted(set(weights) - known)
            if strangers:
                raise ValueError(
                    f"cannot place {obj!r} on {strangers}: not cluster "
                    f"members (cluster is {sorted(known)})"
                )

    @staticmethod
    def _normalize(obj: str,
                   holders: Mapping[int, int] | Iterable[int]
                   ) -> Dict[int, int]:
        try:
            if isinstance(holders, Mapping):
                return {int(p): int(w) for p, w in holders.items()}
            return {int(p): 1 for p in holders}
        except (TypeError, ValueError):
            raise ValueError(
                f"holders of {obj!r} must be processor ids (or a "
                f"pid->weight mapping), got {holders!r}"
            ) from None

    # -- online resharding (placement epochs) -------------------------------

    def epoch_of(self, obj: str) -> int:
        """The placement epoch of ``obj``: 0 at initial placement, +1 per
        committed migration flip.  Access-path stamps and cached routes
        compare against this to detect a concurrent reshard."""
        return self._epochs.get(obj, 0)

    @property
    def flips(self) -> int:
        """Total committed placement flips across all objects."""
        return self._flips

    def pending_copies(self, obj: str) -> set[int]:
        """Holders of a migration-in-progress target placement (empty set
        when no migration is pending for ``obj``)."""
        return set(self._pending.get(obj, ()))

    def begin_migration(self, obj: str,
                        holders: Mapping[int, int] | Iterable[int],
                        members: Optional[Iterable[int]] = None) -> None:
        """Stage a new placement for ``obj`` without routing on it yet.

        Reads and writes keep using the old entry; the staged holders
        only become visible through :meth:`pending_copies` (so installs
        on them are not flagged as orphan copies) until
        :meth:`commit_migration` flips the entry atomically.
        """
        self._weights(obj)  # must already be placed
        if obj in self._pending:
            raise KeyError(f"migration already pending for {obj!r}")
        weights = self._normalize(obj, holders)
        self._check_weights(obj, weights, members)
        self._pending[obj] = weights

    def commit_migration(self, obj: str) -> Mapping[int, int]:
        """Atomically flip ``obj`` to its staged placement.

        Bumps the object's placement epoch, which invalidates cached
        directory routes and fails rule-R4 stamp checks of transactions
        that accessed the old placement.  Returns the old weights (the
        caller retires the dropped copies).
        """
        try:
            new = self._pending.pop(obj)
        except KeyError:
            raise KeyError(f"no migration pending for {obj!r}") from None
        old = self._placement[obj]
        self._placement[obj] = new
        self._epochs[obj] = self._epochs.get(obj, 0) + 1
        self._flips += 1
        return old

    def replace(self, obj: str, holders: Mapping[int, int] | Iterable[int],
                members: Optional[Iterable[int]] = None, *,
                bump_epoch: bool = True) -> Mapping[int, int]:
        """Overwrite ``obj``'s entry in one step, no staging.

        ``bump_epoch=False`` is the deliberately *unguarded* flip used by
        the hunter's conviction canary: stale routes and stale R4 stamps
        go undetected, which the auditor must catch.  Returns the old
        weights.
        """
        old = self._weights(obj)
        weights = self._normalize(obj, holders)
        self._check_weights(obj, weights, members)
        self._pending.pop(obj, None)
        self._placement[obj] = weights
        if bump_epoch:
            self._epochs[obj] = self._epochs.get(obj, 0) + 1
        self._flips += 1
        return old

    # -- queries ------------------------------------------------------------

    @property
    def objects(self) -> set[str]:
        """All declared logical objects."""
        return set(self._placement)

    def copies(self, obj: str) -> set[int]:
        """The processors holding a copy of ``obj``."""
        return set(self._weights(obj))

    def weight(self, obj: str, pid: int) -> int:
        """The weight of ``pid``'s copy of ``obj`` (0 if it has none)."""
        return self._weights(obj).get(pid, 0)

    def weights(self, obj: str) -> Mapping[int, int]:
        """The full ``{pid: weight}`` entry for ``obj``.

        Returned as a read-only snapshot of the internal table (no copy
        on this hot path); callers that cache it must ``dict()`` it.
        """
        return self._weights(obj)

    def total_weight(self, obj: str) -> int:
        """Sum of all copy weights of ``obj``."""
        return sum(self._weights(obj).values())

    def size(self, obj: str) -> int:
        """Declared object size (cost unit for full-copy transfers)."""
        self._weights(obj)
        return self._sizes[obj]

    def accessible(self, obj: str, view: Iterable[int]) -> bool:
        """Rule R1's majority test: does ``view`` hold a weighted majority
        of the copies of ``obj``?"""
        return weighted_majority(self._weights(obj), view)

    def accessible_objects(self, view: Iterable[int],
                           local: Iterable[str] | None = None) -> set[str]:
        """Objects accessible from ``view``; optionally intersected with a
        ``local`` object set (Fig. 5 line 18's locked-set computation)."""
        members = set(view)
        candidates = self.objects if local is None else set(local)
        return {
            obj for obj in candidates
            if obj in self._placement and self.accessible(obj, members)
        }

    def local_objects(self, pid: int) -> set[str]:
        """Objects with a copy on ``pid`` (Fig. 3's ``local``)."""
        return {obj for obj, weights in self._placement.items()
                if pid in weights}

    def holders_by_distance(self, obj: str, view: Iterable[int],
                            distance) -> list[int]:
        """Copy holders inside ``view``, nearest first (rule R2).

        ``distance(pid) -> float`` is supplied by the caller (usually the
        latency model's distance from the reading processor).  Ties break
        on pid for determinism.
        """
        members = set(view)
        candidates = [p for p in self._weights(obj) if p in members]
        return sorted(candidates, key=lambda p: (distance(p), p))

    # -- helpers -----------------------------------------------------------

    def _weights(self, obj: str) -> Dict[int, int]:
        try:
            return self._placement[obj]
        except KeyError:
            raise KeyError(f"unknown logical object {obj!r}") from None

    def __repr__(self) -> str:
        return f"CopyPlacement({len(self._placement)} objects)"
