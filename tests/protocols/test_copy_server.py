"""Every protocol serves a physical access through one copy server
(``ReplicaControlProtocol._serve_read`` / ``_serve_write``): a baseline
and virtual partitions pay the same priced journal append before a
write's ack."""

import pytest

from repro import Cluster
from repro.core.config import ProtocolConfig
from repro.protocols import RowaProtocol
from tests.node.calls import ask

TXN = (2, 99)


def write_reply_time(protocol, append_cost):
    """When p2's one write request for x reaches p1's ack back at p2."""
    cluster = Cluster(processors=3, seed=0, protocol=protocol,
                      config=ProtocolConfig(storage_append_cost=append_cost))
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    payload = {"obj": "x", "txn": TXN, "ts": (0.0, 2, 99), "value": 9,
               "version": (TXN, 1), "pe": 0}
    if protocol is None:  # virtual partitions: the request names p1's view
        payload["v"] = cluster.protocol(1).state.cur_id
    replies = []

    def client():
        reply = yield from ask(cluster.processor(2), 1, "write", payload,
                               timeout=50.0)
        replies.append((reply, cluster.sim.now))

    start = cluster.sim.now
    cluster.sim.process(client())
    cluster.run(until=start + 20.0)
    [(reply, time)] = replies
    assert reply == {"ok": True}
    assert cluster.processor(1).store.peek("x")[0] == 9
    return time - start


@pytest.mark.parametrize("protocol", [RowaProtocol, None],
                         ids=["rowa", "virtual-partitions"])
def test_a_write_ack_waits_for_its_priced_append(protocol):
    free = write_reply_time(protocol, 0.0)
    assert write_reply_time(protocol, 0.5) == free + 0.5
