"""Sharding & partial replication: placement policies and the directory.

This package scales the system past "one fully-replicated object set
on five nodes": :mod:`~repro.shard.policy` maps thousands of logical
objects onto per-object weighted placements of bounded degree across
arbitrary clusters, :mod:`~repro.shard.directory` is the layer every
processor consults to route reads/writes to copy-holders, and
:mod:`~repro.shard.workload` shapes client traffic around the
resulting shards.  ``benchmarks/bench_scaling.py`` (E15) is the
proof: messages per committed transaction track the replication
degree, not the cluster size.
"""

from .directory import (
    CachedDirectory,
    Directory,
    DirectoryStats,
    LocalDirectory,
    make_directory,
)
from .policy import (
    POLICIES,
    HashRingPolicy,
    PlacementPolicy,
    WeightedHomePolicy,
    make_policy,
)
from .reshard import ReshardAction, ReshardEngine, ReshardStats
from .workload import HomeFirstPools, object_names, primary_of

__all__ = [
    "POLICIES",
    "CachedDirectory",
    "Directory",
    "DirectoryStats",
    "HashRingPolicy",
    "HomeFirstPools",
    "LocalDirectory",
    "PlacementPolicy",
    "ReshardAction",
    "ReshardEngine",
    "ReshardStats",
    "WeightedHomePolicy",
    "make_directory",
    "make_policy",
    "object_names",
    "primary_of",
]
