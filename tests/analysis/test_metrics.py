"""Unit tests for history measurement utilities."""

from repro.analysis.history import History, Join
from repro.analysis.metrics import convergence_time


def test_convergence_time_to_highest_partition():
    history = History()
    history.record(Join(time=10.0, pid=1, vpid=(2, 1), view=frozenset({1, 2})))
    history.record(Join(time=12.0, pid=2, vpid=(2, 1), view=frozenset({1, 2})))
    history.record(Join(time=15.0, pid=1, vpid=(3, 1), view=frozenset({1, 2})))
    history.record(Join(time=18.0, pid=2, vpid=(3, 1), view=frozenset({1, 2})))
    assert convergence_time(history, after=10.0) == 8.0
    assert convergence_time(history, after=16.0) == 2.0
    assert convergence_time(history, after=100.0) is None
