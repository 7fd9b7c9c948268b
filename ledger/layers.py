"""Attribute a cProfile run to the repository's layers.

A layer is a directory of ``src/repro`` (``node/storage`` is split out
as ``storage``; the top-level modules belong to ``workload``, the
harness).  Each function's self time and call count go to the layer
its file lives in.  A builtin or standard-library function called
directly from a layer is charged to that layer — it is work the layer
asked for — and only library time with no ``repro`` caller is left in
``python``.  cProfile counts every generator resume as a call, so a
suspended process costs its layer nothing.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Optional

#: src/repro/<dir> -> layer; a directory missing here fails the tests
LAYER_OF_DIR = {
    "sim": "sim", "net": "net", "node": "node", "cc": "cc",
    "commit": "commit", "core": "core", "shard": "shard",
    "client": "client", "audit": "audit", "obs": "obs",
    "workload": "workload", "analysis": "analysis",
    "protocols": "protocols",
}
TOP_LEVEL_LAYER = "workload"
LAYERS = tuple(dict.fromkeys(
    [*LAYER_OF_DIR.values(), "storage", "python"]))

#: public entry points reported as named spans: span -> (path under
#: src/repro that the defining file starts with, function name)
SPANS = {
    "Network.send": ("net/network.py", "send"),
    "Processor.rpc": ("node/processor.py", "rpc"),
    "Processor.scatter_gather": ("node/processor.py", "scatter_gather"),
    "Processor.quorum_call": ("node/processor.py", "quorum_call"),
    "StorageEngine.write": ("node/storage/engine.py", "write"),
    "StorageEngine.record_prepare": (
        "node/storage/engine.py", "record_prepare"),
    "StorageEngine.record_decision": (
        "node/storage/engine.py", "record_decision"),
    "StorageEngine.checkpoint": ("node/storage/engine.py", "checkpoint"),
    "LockManager.acquire": ("cc/locks.py", "acquire"),
    "AtomicCommit.prepare_commit": ("commit/", "prepare_commit"),
    "AtomicCommit.end_transaction": ("commit/", "end_transaction"),
    "ClientSession.run_program": ("client/session.py", "run_program"),
    "Directory.read_candidates": ("shard/directory.py", "read_candidates"),
    "Directory.write_targets": ("shard/directory.py", "write_targets"),
}


def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file, or None when it is not in ``repro``."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    inside = parts[len(parts) - parts[::-1].index("repro"):]
    if len(inside) == 1:
        return TOP_LEVEL_LAYER
    if inside[:2] == ("node", "storage"):
        return "storage"
    return LAYER_OF_DIR[inside[0]]


def attribute(stats: dict) -> dict:
    """Per-layer ``{"self_s": .., "calls": ..}`` from ``pstats`` data.

    ``stats`` is ``pstats.Stats(profile).stats``: ``{(file, line, name):
    (primitive_calls, calls, self_time, cumulative, callers)}``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for (filename, _, _), (_, calls, self_s, _, callers) in stats.items():
        own = layer_of(filename)
        if own is not None:
            layers[own]["self_s"] += self_s
            layers[own]["calls"] += calls
            continue
        for (caller_file, _, _), (sub_calls, _, sub_self, _) \
                in callers.items():
            charged = layer_of(caller_file)
            if charged is not None:
                layers[charged]["self_s"] += sub_self
                layers[charged]["calls"] += sub_calls
                self_s -= sub_self
                calls -= sub_calls
        layers["python"]["self_s"] += self_s
        layers["python"]["calls"] += calls
    return layers


def spans(stats: dict) -> dict:
    """Calls and cumulative busy host time of every named entry point."""
    found = {name: {"calls": 0, "busy_s": 0.0} for name in SPANS}
    for (filename, _, function), (_, calls, _, busy, _) in stats.items():
        path = PurePath(filename).as_posix()
        for name, (where, wanted) in SPANS.items():
            if function == wanted and f"/repro/{where}" in path:
                found[name]["calls"] += calls
                found[name]["busy_s"] += busy
    return found


def self_shares(layers: dict) -> dict:
    """``{layer: fraction of profiled self time}``; sums to 1."""
    total = sum(entry["self_s"] for entry in layers.values())
    return {name: entry["self_s"] / total for name, entry in layers.items()}
