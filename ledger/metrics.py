"""Derive the ledger's metrics from one finished experiment.

Everything here reads the public surface a run already exposes —
``ExperimentResult.registry/network/metrics``, ``LockManager.waits``
and ``cluster.history`` — so the numbers are taken from outside the
program.  Sim-clock metrics (unit ``ticks`` or a per-commit count)
repeat exactly for a seed; host-clock metrics do not.
"""

from __future__ import annotations


def outage_ticks_max(history, instants, end: float) -> float:
    """Longest wait, over ``instants``, for service to resume.

    ``instants`` is ``[(time, majority_pids)]``: for each one, the wait
    is from ``time`` to the first commit of a transaction that began at
    or after it at an origin in ``majority_pids``.  An instant that no
    such commit follows counts up to ``end``.
    """
    committed = history.committed()  # begin-time order
    longest = 0.0
    for time, majority in instants:
        first = min((record.end_time for record in committed
                     if record.begin_time >= time
                     and record.origin in majority), default=end)
        longest = max(longest, first - time)
    return longest


def mean_in_flight(history, start: float, stop: float) -> float:
    """Mean number of transactions open during ``[start, stop)``."""
    busy = 0.0
    for record in history.txns.values():
        finish = stop if record.end_time is None else record.end_time
        busy += max(0.0, min(finish, stop) - max(record.begin_time, start))
    return busy / (stop - start)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(result, issued: int, instants) -> dict:
    """Every metric of one rep that is counted on the simulated clock.

    Returns ``{"programs": .., "issued": .., "end_to_end": {..},
    "per_layer": {..}}``; ``issued`` is the number of programs the
    load generator drew and ``programs`` how many of them committed.
    """
    spec = result.spec
    cluster = result.cluster
    snapshot = result.registry.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]
    latency = histograms.get("client.txn_latency", {"count": 0})
    programs = latency["count"]
    attempts = result.committed + result.aborted
    sent = result.network["sent"]
    rpcs = counters["transport.rpcs"]
    cache_looks = (counters.get("client.cache.hits", 0)
                   + counters.get("client.cache.misses", 0))
    quarter = spec.duration / 4

    end_to_end = {
        "commit_frac": _ratio(programs, issued),
        "lat_mean_ticks": latency.get("mean", 0.0),
        "lat_p99_ticks": latency.get("p99", 0.0),
        "goodput_per_ktick": 1000.0 * programs / spec.duration,
        "msgs_per_commit": _ratio(sent, programs),
        "forced_writes_per_commit": _ratio(
            counters["storage.forced_syncs"], programs),
    }
    per_layer = {
        "sim.events_per_commit": _ratio(result.events_dispatched, programs),
        "net.envelopes_per_commit": _ratio(
            result.network["envelopes"], programs),
        "net.batch_occupancy": result.batch_occupancy,
        "net.background_msg_frac": 1.0 - _ratio(result.txn_messages, sent),
        "net.dropped_frac": _ratio(result.network["dropped"], sent),
        "node.rpcs_per_commit": _ratio(rpcs, programs),
        "node.fanouts_per_commit": _ratio(
            counters["transport.fanouts"], programs),
        "node.no_response_frac": _ratio(
            counters["transport.no_responses"], rpcs),
        "node.late_reply_frac": _ratio(
            counters["transport.late_replies"], rpcs),
        "node.fanout_p50_ticks": histograms.get(
            "transport.fanout_latency", {}).get("p50", 0.0),
        "storage.wal_appends_per_commit": _ratio(
            counters["storage.wal_appends"], programs),
        "storage.forced_syncs_per_commit": _ratio(
            counters["storage.forced_syncs"], programs),
        "storage.checkpoints": counters["storage.checkpoints"],
        "storage.retained_entries": gauges["storage.retained_entries"],
        "cc.lock_waits_per_commit": _ratio(
            sum(protocol.cc.locks.waits
                for protocol in cluster.protocols.values()), programs),
        "cc.timeout_abort_frac": _ratio(
            result.metrics.by_reason.get("cc-timeout", 0), attempts),
        "cc.attempts_per_commit": _ratio(attempts, programs),
        "commit.txn_msgs_per_commit": _ratio(result.txn_messages, programs),
        "commit.in_doubt_dwell_p99_ticks": histograms.get(
            "txn.in_doubt_dwell", {}).get("p99", 0.0),
        "core.accesses_per_op": result.accesses_per_operation,
        "core.vp_created": gauges["protocol.vp_created"],
        "core.recoveries": gauges["protocol.recoveries"],
        "core.transfer_units": gauges["protocol.transfer_units"],
        "core.outage_ticks_max": outage_ticks_max(
            cluster.history, instants, spec.duration + spec.grace),
        "shard.directory_hit_ratio": _ratio(
            counters.get("directory.hits", 0),
            counters.get("directory.lookups", 0)),
        "shard.lookups_per_commit": _ratio(
            counters.get("directory.lookups", 0), programs),
        "client.lat_p50_ticks": latency.get("p50", 0.0),
        "client.local_read_frac": result.local_read_fraction,
        "client.cache_hit_ratio": _ratio(
            counters.get("client.cache.hits", 0), cache_looks),
        "client.lease_served_frac": _ratio(
            counters.get("client.lease_reads", 0),
            counters.get("client.reads", 0)),
        "client.msgs_per_program": result.messages_per_client_program,
        "client.backlog_at_end": mean_in_flight(
            cluster.history, 3 * quarter, 4 * quarter),
        "audit.violations": len(result.audit_violations),
    }
    return {
        "programs": programs,
        "issued": issued,
        "backlog_mid": mean_in_flight(cluster.history, quarter, 2 * quarter),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
