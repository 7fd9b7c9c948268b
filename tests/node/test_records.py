"""The per-event record contract: ``Message``, ``WalRecord``,
``LogEntry``, ``PhysicalOp`` and ``LogicalOp``.

One of each is built per send, journalled write or copy access, so they
are tuples built positionally; these pins hold what callers rely on —
immutable fields, value equality and hashing, and the printed form."""

import pytest

from repro.analysis.history import LogicalOp, PhysicalOp
from repro.core.ids import VpId
from repro.net.message import Message
from repro.node.storage.store import LogEntry
from repro.node.storage.wal import WalRecord

RECORDS = [
    pytest.param(
        lambda: Message(1, 2, "read", {"obj": "x"}, 5, 9, 3.0),
        "Message#9(read 1->2 {'obj': 'x'})", id="Message"),
    pytest.param(
        lambda: WalRecord(7, "write", False, "x", 3, (VpId(2, 1), 1),
                          ("T1", 1)),
        "WalRecord(lsn=7, kind='write', forced=False, obj='x', value=3, "
        "date=(vp(2,1), 1), version=('T1', 1), size=None, cell=None, "
        "txn=None, outcome=None)", id="WalRecord"),
    pytest.param(
        lambda: LogEntry((1, 1), 1),
        "LogEntry(date=(1, 1), value=1, version=None)", id="LogEntry"),
    pytest.param(
        lambda: PhysicalOp(2.0, (1, 1), "r", "x", 3, 5, ("T0", 0),
                           VpId(1, 1)),
        "PhysicalOp(time=2.0, txn=(1, 1), kind='r', obj='x', copy_pid=3, "
        "value=5, version=('T0', 0), vpid=vp(1,1))", id="PhysicalOp"),
    pytest.param(
        lambda: LogicalOp(2.5, (1, 1), "w", "x", 6, ((1, 1), 0)),
        "LogicalOp(time=2.5, txn=(1, 1), kind='w', obj='x', value=6, "
        "version=((1, 1), 0))", id="LogicalOp"),
]


@pytest.mark.parametrize("make, printed", RECORDS)
def test_every_field_is_read_only(make, printed):
    record = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("make, printed", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(make, printed):
    first, second = make(), make()
    assert first == second and first is not second
    if isinstance(first, Message):
        # a mapping payload is unhashable, so is its envelope
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("make, printed", RECORDS)
def test_repr_is_pinned(make, printed):
    assert repr(make()) == printed


def test_a_bare_message_has_an_empty_read_only_payload():
    message = Message(1, 2, "k")
    assert dict(message.payload) == {}
    assert (message.reply_to, message.msg_id, message.sent_at) == (None, 0, 0.0)
    with pytest.raises(TypeError):
        message.payload["a"] = 1  # type: ignore[index]
    assert Message(2, 1, "k").payload is message.payload  # one shared default
