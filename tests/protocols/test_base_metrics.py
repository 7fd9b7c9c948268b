"""Pin the registry's walk to every registered stats class's fields.

``MetricsRegistry.snapshot`` iterates ``dataclasses.fields()`` of each
registered object, so a counter added to any ``*Stats`` class is
published instead of silently dropped.  The test below sets every int
field to a distinct value, so a walk that forgets one fails on exactly
that field's name.
"""

from dataclasses import fields

from repro.client.session import SessionSpec
from repro.obs.metrics import GAUGE_PREFIXES, RENAMED
from repro.shard.reshard import ReshardAction
from repro.workload import ExperimentSpec, run_experiment


def test_snapshot_covers_every_int_field():
    # a run that registers every stats class: sessions with cache and
    # leases (client, client.cache, client.lease), a cached directory
    # and a reshard engine on top of the cluster's own five
    result = run_experiment(ExperimentSpec(
        processors=5, objects=8, copies_per_object=3, seed=1,
        duration=40.0, grace=20.0, placement="hash-ring",
        directory="cached", txns_per_client=2,
        session=SessionSpec(cache_capacity=4, lease_duration=5.0),
        reshard=(ReshardAction.onto_spares(5, 1, 20.0),)))
    registry = result.cluster.registry
    assert sorted(registry.sources) == [
        "client", "client.cache", "client.lease", "directory", "msg",
        "protocol", "reshard", "storage", "transport"]
    expected = {}
    for prefix, stats in registry.sources.items():
        for index, spec in enumerate(fields(stats), start=1):
            if isinstance(getattr(stats, spec.name), int):
                setattr(stats, spec.name, 1000 + index)
                expected[f"{prefix}.{spec.name}"] = (prefix, 1000 + index)
    snapshot = registry.snapshot()
    for name, (prefix, value) in expected.items():
        kind = "gauges" if prefix in GAUGE_PREFIXES else "counters"
        assert snapshot[kind][RENAMED.get(name, name)] == value, name
