"""Quickstart: replicate an object, partition the network, watch the
protocol adapt — in about forty lines.

Run:  python examples/quickstart.py
"""

import math

from repro import (Cluster, CopyOrder, FaultAction, apply_schedule,
                   is_cp_serializable)

# Five processors, a counter replicated on all of them.  The 1SR check
# reads what History keeps; the CP check reads every physical op, so it
# records its own copy order from the start.
cluster = Cluster(processors=5, seed=42)
copies = CopyOrder(cluster.history)
cluster.place("counter", holders=[1, 2, 3, 4, 5], initial=0)
cluster.start()


# A transaction is a generator: reads and writes via `yield from`.
def increment(txn):
    value = yield from txn.read("counter")
    yield from txn.write("counter", value + 1)
    return value + 1


# Healthy cluster: the increment commits, reading only the LOCAL copy.
outcome = cluster.submit(1, increment)
cluster.run(until=30.0)
committed, value = outcome.value
print(f"healthy increment: committed={committed}, counter={value}")

# Partition {1,2,3} from {4,5}.  The protocol detects it via probing and
# forms two virtual partitions within Delta = pi + 8*delta time units.
# A FaultAction holds for `hold` time units; this one until we heal it.
(heal,) = apply_schedule(cluster.injector, [
    FaultAction(31.0, "partition", ((1, 2, 3), (4, 5)), hold=math.inf)])
cluster.run(until=31.0 + cluster.config.liveness_bound)
print(f"p1 view after partition: {sorted(cluster.protocol(1).view)}")
print(f"p4 view after partition: {sorted(cluster.protocol(4).view)}")

# The majority side can still increment; the minority cannot (rule R1).
majority = cluster.submit(1, increment)
minority = cluster.submit(4, increment)
cluster.run(until=cluster.sim.now + 30.0)
print(f"majority increment: {majority.value}")
print(f"minority increment: {minority.value}")

# Heal.  The sides merge into a fresh virtual partition and rule R5
# brings p4/p5's stale copies up to date before anyone may read them.
cluster.injector.at(cluster.sim.now + 1.0, *heal)
cluster.run(until=cluster.sim.now + cluster.config.liveness_bound + 10)
value, _date = cluster.processor(4).store.peek("counter")
print(f"p4's copy after heal: {value}")

# Every run records what the checkers read; audit it.
print(f"one-copy serializable: {cluster.check_one_copy_serializable()}")
print(f"conflict-serializable: {is_cp_serializable(copies)}")

assert value == 2
assert cluster.check_one_copy_serializable()
print("quickstart OK")
