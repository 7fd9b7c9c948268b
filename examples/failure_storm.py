"""Survive a failure storm: crashes, link cuts, partitions, re-partitions.

Seven processors, several objects, a workload of small transactions —
and a storm of scripted failures, including the nasty cases the paper
is specifically built for: non-transitive connectivity and
re-partitioning while views are stale.  At the end the recorded history
is audited for one-copy serializability and the S1/S3 properties are
checked directly on the join/depart log.

Run:  python examples/failure_storm.py
"""

from repro import (Cluster, CopyOrder, FaultAction, apply_schedule,
                   is_cp_serializable)
from repro.workload import WorkloadGenerator, WorkloadSpec, body_for

N = 7
OBJECTS = [f"obj{i}" for i in range(6)]
DURATION = 900.0

cluster = Cluster(processors=N, seed=1234)
copies = CopyOrder(cluster.history)  # every physical op, for the CP check
for index, obj in enumerate(OBJECTS):
    holders = [(index + k) % N + 1 for k in range(5)]  # 5 copies each
    cluster.place(obj, holders=holders, initial=0)
cluster.start()

# The storm script: each fault starts at `time` and ends `hold` later.
apply_schedule(cluster.injector, [
    FaultAction(time=40.0, kind="crash", args=(7,), hold=160.0),
    # non-transitive: 1-2 cut, both reach 3, until the partition
    FaultAction(time=80.0, kind="cut", args=(1, 2), hold=80.0),
    FaultAction(time=160.0, kind="partition",
                args=((1, 2, 3, 4), (5, 6), (7,)), hold=100.0),
    # re-partition: the first partition ends as this one starts
    FaultAction(time=260.0, kind="partition",
                args=((3, 4, 5), (1, 2, 6, 7)), hold=140.0),
    FaultAction(time=320.0, kind="crash", args=(3,), hold=120.0),
    FaultAction(time=500.0, kind="cut", args=(4, 5), hold=60.0),
])

# Clients at every processor, retrying through the chaos.
def client(pid):
    generator = WorkloadGenerator(
        WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                     mean_interarrival=15.0),
        OBJECTS, cluster.streams.stream(f"client-{pid}"),
    )
    tm = cluster.tm(pid)
    index = 0
    while cluster.sim.now < DURATION:
        yield cluster.sim.timeout(generator.next_interarrival())
        body = body_for(generator.next_program(), tag=f"p{pid}#{index}")
        index += 1
        yield from tm.run(body, retries=2, backoff=5.0)


for pid in cluster.pids:
    cluster.sim.process(client(pid), name=f"client@{pid}")

cluster.run(until=DURATION + 100.0)

committed = cluster.history.committed()
aborted = cluster.history.aborted()
print(f"storm survived: {len(committed)} committed, "
      f"{len(aborted)} aborted transaction attempts")
print(f"virtual partitions created: {cluster.metrics.vp_created}")
print(f"copy recoveries performed (rule R5): {cluster.metrics.recoveries}")

# Audit S1 (view consistency): every partition has exactly one view.
for vpid in cluster.history.partitions_seen():
    cluster.history.view_of(vpid)  # raises if two views were committed
print("S1 (view consistency) holds for every partition")

# Audit S3 (depart-before-join) directly on the event log.
departs = {}
for time, pid, vpid in cluster.history.departs:
    departs.setdefault((pid, vpid), time)
joins_by_vp = {}
for time, pid, vpid, view in cluster.history.joins:
    joins_by_vp.setdefault(vpid, []).append((time, pid, view))
for vpid, joins in joins_by_vp.items():
    first_join = min(t for t, _, _ in joins)
    view = joins[0][2]
    for other in joins_by_vp:
        if other < vpid:
            for pid in cluster.history.members_of(other) & set(view):
                assert departs.get((pid, other), first_join) <= first_join
print("S3 (serializability of virtual partitions) holds")

# The one that matters: the surviving history is one-copy serializable.
from repro.analysis.one_copy import check_one_copy

result = check_one_copy(cluster.history)
assert result.ok, result.violation
print(f"one-copy serializability: proved (a serial order of "
      f"{len(result.witness)} transactions replays)")
assert is_cp_serializable(copies)
print("conflict-serializability: holds")
print("failure_storm OK")
