"""Weighted copies: keep a primary site writable through any single split.

The paper's majority rule is *weighted* — Example 2's placement uses
weights, and Gifford's observation applies here too: give the primary
site's copy extra votes and the side containing the primary stays
writable in every two-way split, at the price that the other side never
is.

Three sites replicate a configuration object.  With equal weights, a
1-vs-2 split strands the single site; with the primary holding weight
3 of 5, the primary side survives *any* split that contains it —
including being completely alone.

Run:  python examples/weighted_primary.py
"""

import math

from repro import Cluster, FaultAction, apply_schedule

PRIMARY, REPLICA_A, REPLICA_B = 1, 2, 3


def demo(weights, label):
    print(f"--- {label} (weights: {weights}) ---")
    cluster = Cluster(processors=3, seed=11)
    cluster.place("config", holders=weights, initial="v1")
    cluster.start()

    # Isolate the primary from both replicas.
    (heal,) = apply_schedule(cluster.injector, [FaultAction(
        5.0, "partition", ((PRIMARY,), (REPLICA_A, REPLICA_B)), math.inf)])
    cluster.run(until=5.0 + cluster.config.liveness_bound)

    primary_write = cluster.write_once(PRIMARY, "config", "v2-from-primary")
    replica_write = cluster.write_once(REPLICA_A, "config", "v2-from-replica")
    cluster.run(until=cluster.sim.now + 40.0)
    print(f"  primary-side write: {primary_write.value}")
    print(f"  replica-side write: {replica_write.value}")

    # Heal and confirm the surviving write propagated everywhere.
    cluster.injector.at(cluster.sim.now + 1.0, *heal)
    cluster.run(until=cluster.sim.now + cluster.config.liveness_bound + 10)
    values = {pid: cluster.processor(pid).store.peek("config")[0]
              for pid in cluster.pids}
    print(f"  after heal: {values}")
    assert cluster.check_one_copy_serializable()
    return primary_write.value, replica_write.value, values


# Equal weights: the 2-replica side holds the majority; the lone
# primary is stranded.
p_eq, r_eq, values_eq = demo({PRIMARY: 1, REPLICA_A: 1, REPLICA_B: 1},
                             "equal weights")
assert p_eq[0] is False, "lone primary must NOT win with equal weights"
assert r_eq[0] is True
assert set(values_eq.values()) == {"v2-from-replica"}

print()

# Weighted primary: 3 votes of 5 — the primary alone IS the majority.
p_w, r_w, values_w = demo({PRIMARY: 3, REPLICA_A: 1, REPLICA_B: 1},
                          "weighted primary")
assert p_w[0] is True, "weighted primary must stay writable alone"
assert r_w[0] is False, "the replica side must be read-only"
assert set(values_w.values()) == {"v2-from-primary"}

print()
print("Same protocol, same rules — the weights choose which side of a")
print("split keeps the write capability. weighted_primary OK")
