"""Unit tests for MessageQueue mailboxes."""

from repro.sim import MessageQueue, Simulator


def test_put_then_get_is_immediate():
    sim = Simulator()
    queue = MessageQueue(sim)
    queue.put("a")

    def getter():
        item = yield queue.get()
        return (item, sim.now)

    proc = sim.process(getter())
    sim.run()
    assert proc.value == ("a", 0.0)


def test_get_blocks_until_put():
    sim = Simulator()
    queue = MessageQueue(sim)

    def getter():
        item = yield queue.get()
        return (item, sim.now)

    def putter():
        yield sim.timeout(3.0)
        queue.put("late")

    proc = sim.process(getter())
    sim.process(putter())
    sim.run()
    assert proc.value == ("late", 3.0)


def test_fifo_order_items_and_waiters():
    sim = Simulator()
    queue = MessageQueue(sim)
    got = []

    def getter(tag):
        item = yield queue.get()
        got.append((tag, item))

    sim.process(getter("first"))
    sim.process(getter("second"))

    def putter():
        yield sim.timeout(1.0)
        queue.put(1)
        queue.put(2)

    sim.process(putter())
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_cancelled_get_does_not_steal_items():
    sim = Simulator()
    queue = MessageQueue(sim)

    def racer():
        get = queue.get()
        tick = sim.timeout(1.0)
        result = yield sim.any_of([get, tick])
        assert get not in result
        # The cancelled get must not consume this later item.
        queue.put("item")
        item = yield queue.get()
        return item

    proc = sim.process(racer())
    sim.run()
    assert proc.value == "item"


def test_clear_drops_items_and_orphans_waiters():
    sim = Simulator()
    queue = MessageQueue(sim)
    queue.put("x")
    pending = queue.get.__self__.get() if False else None  # noqa: F841
    waiter_fired = []

    def getter():
        item = yield queue.get()
        waiter_fired.append(item)

    queue.clear()
    sim.process(getter())
    sim.run(until=1.0)
    queue.clear()
    queue.put("y")  # waiter was orphaned; item stays queued
    assert waiter_fired == []
    assert queue.peek_all() == ["y"]
    assert len(queue) == 1


def test_simultaneous_multi_queue_race_loses_no_items():
    """Regression: two mailboxes firing at the same instant inside one
    AnyOf must not drop the loser's item — it goes back to its queue."""
    sim = Simulator()
    qa, qb = MessageQueue(sim, "a"), MessageQueue(sim, "b")
    seen = []

    def dispatcher():
        while True:
            get_a, get_b = qa.get(), qb.get()
            fired = yield sim.any_of([get_a, get_b])
            if get_a in fired:
                seen.append(("a", fired[get_a]))
            if get_b in fired:
                seen.append(("b", fired[get_b]))

    def feeder():
        yield sim.timeout(1.0)
        qa.put("item-a")
        qb.put("item-b")  # same instant

    sim.process(dispatcher())
    sim.process(feeder())
    sim.run(until=10.0)
    assert sorted(seen) == [("a", "item-a"), ("b", "item-b")]


def test_pushed_back_item_keeps_fifo_position():
    sim = Simulator()
    qa, qb = MessageQueue(sim, "a"), MessageQueue(sim, "b")
    order = []

    def dispatcher():
        while True:
            get_a, get_b = qa.get(), qb.get()
            fired = yield sim.any_of([get_a, get_b])
            for get, tag in ((get_a, "a"), (get_b, "b")):
                if get in fired:
                    order.append((tag, fired[get]))

    def feeder():
        yield sim.timeout(1.0)
        qb.put("b1")
        qb.put("b2")
        qa.put("a1")

    sim.process(dispatcher())
    sim.process(feeder())
    sim.run(until=10.0)
    assert [item for tag, item in order if tag == "b"] == ["b1", "b2"]
    assert ("a", "a1") in order
