"""Store / PriorityStore channel behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PriorityStore, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(9)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (9.0, "late")

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)

        def producer(env):
            yield store.put(1)
            yield store.put(2)  # blocks until the consumer frees a slot
            return env.now

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        p = env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert p.value == 5.0

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        env.run()
        assert len(store) == 2

    def test_try_put_hands_to_waiting_getter(self, env):
        store = Store(env, capacity=1)

        def consumer(env):
            item = yield store.get()
            return item

        c = env.process(consumer(env))
        env.run(until=1)
        assert store.try_put("direct")
        env.run()
        assert c.value == "direct"

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() is None
        store.try_put("x")
        env.run()
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_total_put_counts(self, env):
        store = Store(env)
        for i in range(3):
            store.try_put(i)
        env.run()
        assert store.total_put == 3

    def test_items_snapshot(self, env):
        store = Store(env)
        store.try_put("a")
        store.try_put("b")
        assert store.items == ("a", "b")


class TestGetThen:
    def test_receives_a_buffered_item_at_the_get_slot(self, env):
        store = Store(env)
        store.put("a")
        seen = []
        eid = env._eid
        store.get_then(lambda item: seen.append((env.now, item)))
        # Same eid consumption as get(): one slot for the delivery.
        assert env._eid == eid + 1
        env.run()
        assert seen == [(0.0, "a")]

    def test_orders_like_a_store_get_event(self):
        """get_then fires at exactly the (time, priority, eid) slot the
        StoreGet would: a twin run with get() pops the same sequence."""
        def drive(use_callback):
            env = Environment()
            store = Store(env)
            order = []

            def consume(item):
                order.append(("got", item, env.now))

            def other(env):
                yield env.timeout(1.0)
                order.append(("other", env.now))

            env.process(other(env))
            if use_callback:
                store.get_then(consume)
            else:
                store.get().callbacks.append(
                    lambda evt: consume(evt.value))
            env.defer(1.0, lambda _e: store.try_put("x"))
            env.run()
            return order, env._eid, env.events_processed

        assert drive(True) == drive(False)

    def test_parked_callbacks_and_get_events_wake_fifo(self, env):
        store = Store(env)
        order = []

        def getter(env, tag):
            item = yield store.get()
            order.append((tag, item))

        env.process(getter(env, "g1"))
        env.run()
        store.get_then(lambda item: order.append(("c1", item)))
        env.process(getter(env, "g2"))
        env.run()
        store.get_then(lambda item: order.append(("c2", item)))
        for item in range(4):
            store.try_put(item)
        env.run()
        assert order == [("g1", 0), ("c1", 1), ("g2", 2), ("c2", 3)]

    def test_put_event_wakes_a_parked_callback(self, env):
        store = Store(env)
        seen = []
        store.get_then(seen.append)

        def producer(env):
            yield store.put("p")
            seen.append("put-done")

        env.process(producer(env))
        env.run()
        assert seen == ["p", "put-done"]

    def test_purge_waiters_drops_parked_callbacks(self, env):
        store = Store(env)
        seen = []
        store.get_then(seen.append)
        store.get()
        assert store.purge_waiters() == (2, 0)
        assert store.try_put("late")
        env.run()
        assert seen == []
        assert store.items == ("late",)

    def test_bounded_store_wakes_a_putter(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer(env):
            for item in ("a", "b"):
                yield store.put(item)
            done.append(env.now)

        env.process(producer(env))
        env.run()
        assert store.items == ("a",) and not done
        seen = []
        store.get_then(seen.append)
        env.run()
        assert seen == ["a"]
        assert store.items == ("b",)
        assert done == [0.0]

    def test_priority_store_hands_the_smallest(self, env):
        store = PriorityStore(env)
        for item in (3, 1, 2):
            store.put(item)
        seen = []
        store.get_then(seen.append)
        env.run()
        assert seen == [1]


class TestPriorityStore:
    def test_pops_smallest_first(self, env):
        store = PriorityStore(env)
        got = []

        def producer(env):
            for value in [5, 1, 4, 2]:
                yield store.put(value)

        def consumer(env):
            yield env.timeout(1)
            for _ in range(4):
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [1, 2, 4, 5]

    def test_ties_broken_by_insertion_order(self, env):
        store = PriorityStore(env)
        store.try_put((1, "first"))
        store.try_put((1, "second"))
        env.run()
        assert store.try_get() == (1, "first")
        assert store.try_get() == (1, "second")
