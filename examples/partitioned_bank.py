"""A replicated bank that survives a datacenter split.

Three branches (pairs of processors) replicate two accounts.  Mid-run,
the network splits the branches 4 | 2.  Transfers keep committing on
the majority side, the minority's transfers abort instead of forking
the ledger, and after the heal every copy agrees and the money adds up
— the exact scenario the paper's majority + read-one/write-all rules
are designed for.

Run:  python examples/partitioned_bank.py
"""

import math

from repro import Cluster, FaultAction, TransactionAborted, apply_schedule

BRANCH_A, BRANCH_B, BRANCH_C = (1, 2), (3, 4), (5, 6)
ALL = [*BRANCH_A, *BRANCH_B, *BRANCH_C]

cluster = Cluster(processors=6, seed=7)
cluster.place("alice", holders=ALL, initial=1000)
cluster.place("bob", holders=ALL, initial=1000)
cluster.start()


def transfer(amount):
    def body(txn):
        source = yield from txn.read("alice")
        if source < amount:
            raise ValueError("insufficient funds")
        target = yield from txn.read("bob")
        yield from txn.write("alice", source - amount)
        yield from txn.write("bob", target + amount)
        return (source - amount, target + amount)
    return body


def audit(label):
    balances = {}
    for pid in ALL:
        alice, _ = cluster.processor(pid).store.peek("alice")
        bob, _ = cluster.processor(pid).store.peek("bob")
        balances[pid] = (alice, bob)
    print(f"{label}: {balances}")
    return balances


# Normal operation: transfers from two different branches.
for origin, amount in [(1, 100), (3, 50)]:
    outcome = cluster.submit(origin, transfer(amount))
    cluster.run(until=cluster.sim.now + 25.0)
    print(f"transfer {amount} from p{origin}: {outcome.value}")

# The split: branches A+B on one side, branch C on the other.
split_at = cluster.sim.now + 1.0
(heal,) = apply_schedule(cluster.injector, [FaultAction(
    split_at, "partition", (BRANCH_A + BRANCH_B, BRANCH_C), math.inf)])
cluster.run(until=split_at + cluster.config.liveness_bound)

# Majority side (4 of 6 copies) keeps serving...
good = cluster.submit(2, transfer(200))
# ...the minority side cannot reach a majority of copies and aborts.
bad = cluster.submit(5, transfer(999))
cluster.run(until=cluster.sim.now + 30.0)
print(f"majority-side transfer: {good.value}")
print(f"minority-side transfer: {bad.value}")
assert good.value[0] is True
assert bad.value[0] is False

audit("during the split")

# Heal; rule R5 reconciles branch C's stale copies before any read.
healed = cluster.sim.now + 1.0
cluster.injector.at(healed, *heal)
cluster.run(until=healed + cluster.config.liveness_bound + 10)
balances = audit("after the heal")

# Every copy agrees, and no money was created or destroyed.
assert len(set(balances.values())) == 1
alice, bob = next(iter(balances.values()))
assert alice + bob == 2000, f"conservation violated: {alice} + {bob}"

# The ledger's history is one-copy serializable — the minority abort
# was the price of never forking it.
assert cluster.check_one_copy_serializable()
print(f"final: alice={alice} bob={bob}, total=2000, history is 1SR")
print("partitioned_bank OK")
