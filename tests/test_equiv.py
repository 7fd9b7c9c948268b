"""``python -m tests.equiv``'s fingerprint diff, on hand-made fingerprints."""

from tests.equiv import diff

FINGERPRINT = {
    "committed": 10,
    "network": {"sent": 40, "dropped": 0},
    "registry": {"counters": {"msg.sent": 40, "msg.slow": 0}},
    "audit_violations": [{"kind": "a"}],
    "latency": float("nan"),
}


def copy(fingerprint):
    return {key: (copy(value) if isinstance(value, dict) else
                  [copy(v) for v in value] if isinstance(value, list) else value)
            for key, value in fingerprint.items()}


def test_equal_fingerprints_have_no_difference():
    assert diff(FINGERPRINT, copy(FINGERPRINT)) == []


def test_a_differing_value_is_named_by_its_dotted_path():
    new = copy(FINGERPRINT)
    new["registry"]["counters"]["msg.sent"] = 41
    new["audit_violations"][0]["kind"] = "b"
    assert diff(FINGERPRINT, new) == [
        "audit_violations.0.kind: 'a' != 'b'",
        "registry.counters.msg.sent: 40 != 41",
    ]


def test_a_key_on_one_side_only_is_named_with_its_side():
    old = copy(FINGERPRINT)
    new = copy(FINGERPRINT)
    del new["network"]["dropped"]
    new["registry"]["counters"]["msg.lost"] = 1
    new["audit_violations"].append({"kind": "c"})
    assert diff(old, new) == [
        "audit_violations.1: only in new",
        "network.dropped: only in old",
        "registry.counters.msg.lost: only in new",
    ]


def test_an_ignored_key_drops_it_and_everything_under_it():
    new = copy(FINGERPRINT)
    del new["network"]["dropped"]
    new["registry"]["counters"]["msg.slow"] = 3
    new["committed"] = 11
    assert diff(FINGERPRINT, new, ("network.dropped", "registry")) == [
        "committed: 10 != 11"]
    assert diff(FINGERPRINT, new,
                ("network", "registry.counters.msg.slow", "committed")) == []


def test_a_key_is_ignored_only_as_a_whole_path_segment():
    new = copy(FINGERPRINT)
    new["network"]["sent"] = 41
    assert diff(FINGERPRINT, new, ("network.se",)) == [
        "network.sent: 40 != 41"]
