"""The §4 "clean-environment" rules *without* virtual partitions.

This is the strawman the paper derives its protocol from: every
processor keeps a private view of whom it can reach, gates accesses by
a weighted majority over that view (rule A-style R1), reads the nearest
in-view copy, and writes all in-view copies.  Under assumptions A2
(transitive connectivity) and A3 (instant, consistent view updates) it
is correct — and both assumptions are unrealistic:

* with a **non-transitive** graph (Fig. 1), two processors with
  overlapping majorities update through a common copy and lose updates
  (Example 1);
* with **asynchronous view updates** (Fig. 2, Tables 1–2), stale views
  let four transactions run on purely local copies (Example 2).

The scenario tests and ``benchmarks/bench_example1.py`` /
``bench_example2.py`` run this protocol under exactly those failure
timings and show the checker rejecting the executions as non-1SR,
while the virtual partitions protocol under identical timing stays
correct.

Views refresh from the live communication graph every ``pi`` time
units (modelling per-processor failure detectors with independent
timing); tests may also set views directly to pin down the paper's
exact interleavings.
"""

from __future__ import annotations

from typing import Any

from .common import BaselineProtocol


class NaiveViewProtocol(BaselineProtocol):
    """Majority/read-one/write-all over unsynchronized local views."""

    name = "naive-view"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.view: set[int] = set(self.all_pids)
        #: pause automatic refreshing (scenario tests drive views by hand)
        self.auto_refresh = True

    def attach(self) -> None:
        super().attach()
        self.processor.add_task("refresh-view", self._refresh_loop)

    # ------------------------------------------------------------------
    # view maintenance: A3 approximated by periodic perfect detection
    # ------------------------------------------------------------------

    def _refresh_loop(self):
        while True:
            yield self.sim.timeout(self.config.pi)
            if self.auto_refresh:
                self.refresh_view()

    def refresh_view(self) -> None:
        """Adopt the closed neighbourhood in the *current* graph.

        This is assumption A3 taken literally — each processor's view
        is exactly itself plus its graph neighbours — which is where
        Example 1's anomaly comes from when the graph is not transitive.
        """
        graph = self.processor.network.graph
        self.view = {self.pid} | graph.neighbors(self.pid)

    # ------------------------------------------------------------------
    # logical operations: the ROWA walks over the copies in the view
    # ------------------------------------------------------------------

    def logical_read(self, obj: str, ctx):
        if not self.placement.accessible(obj, self.view):
            self._fail(obj, "r", "inaccessible")
        payload = yield from self._read_one(
            obj, ctx, self._nearest(obj, self.view), "no-copy-in-view")
        return payload["value"]

    def logical_write(self, obj: str, value: Any, ctx):
        if not self.placement.accessible(obj, self.view):
            self._fail(obj, "w", "inaccessible")
        yield from self._write_all(obj, value, ctx,
                                   sorted(self.placement.copies(obj) & self.view))

    def available(self, obj: str, write: bool) -> bool:
        return self.placement.accessible(obj, self.view)
