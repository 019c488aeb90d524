"""Unit tests for locks, resources, and stores."""

import pytest

from repro.sim.sync import Lock, Resource, Store


class TestLock:
    def test_uncontended_acquire_is_immediate(self, engine):
        lock = Lock(engine)

        def proc():
            yield lock.acquire()
            held = lock.locked
            lock.release()
            return held

        assert engine.run_process(proc()) is True

    def test_fifo_ordering(self, engine):
        lock = Lock(engine)
        order = []

        def holder():
            yield lock.acquire("holder")
            yield engine.timeout(5.0)
            lock.release()

        def contender(name, start):
            yield engine.timeout(start)
            yield lock.acquire(name)
            order.append(name)
            lock.release()

        engine.process(holder())
        engine.process(contender("first", 1.0))
        engine.process(contender("second", 2.0))
        engine.run()
        assert order == ["first", "second"]

    def test_release_unheld_raises(self, engine):
        with pytest.raises(Exception):
            Lock(engine).release()

    def test_wait_time_accounting(self, engine):
        lock = Lock(engine)

        def holder():
            yield lock.acquire()
            yield engine.timeout(4.0)
            lock.release()

        def waiter():
            yield engine.timeout(1.0)
            yield lock.acquire()
            lock.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run()
        assert lock.total_wait_time == pytest.approx(3.0)
        assert lock.contended_acquisitions == 1
        assert lock.acquisitions == 2

    def test_hold_time_accounting(self, engine):
        lock = Lock(engine)

        def proc():
            yield lock.acquire()
            yield engine.timeout(2.0)
            lock.release()

        engine.run_process(proc())
        assert lock.total_hold_time == pytest.approx(2.0)

    def test_queue_length(self, engine):
        lock = Lock(engine)

        def holder():
            yield lock.acquire()
            yield engine.timeout(10.0)
            lock.release()

        def waiter():
            yield engine.timeout(1.0)
            yield lock.acquire()
            lock.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=2.0)
        assert lock.queue_length == 1


class TestResource:
    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(Exception):
            Resource(engine, 0)

    def test_acquire_up_to_capacity(self, engine):
        resource = Resource(engine, 2)
        granted = []
        for name in ("a", "b", "c"):
            resource.acquire(granted.append, name)
        # Grants run synchronously inside acquire(); the third waits.
        assert granted == ["a", "b"]
        assert resource.available == 0

    def test_blocks_beyond_capacity(self, engine):
        resource = Resource(engine, 1)
        progress = []

        def first():
            resource.acquire(lambda: None)
            yield engine.timeout(5.0)
            resource.release()

        def second():
            yield engine.timeout(1.0)
            resource.acquire(lambda: progress.append(engine.now))

        engine.process(first())
        engine.process(second())
        engine.run()
        # Granted inside first()'s release, at t=5, holding the unit on.
        assert progress == [5.0]
        assert resource.in_use == 1

    def test_waiters_granted_fifo_with_args(self, engine):
        resource = Resource(engine, 1)
        order = []
        resource.acquire(order.append, "holder")
        resource.acquire(order.append, "first")
        resource.acquire(order.append, "second")
        resource.release()
        resource.release()
        assert order == ["holder", "first", "second"]

    def test_release_idle_raises(self, engine):
        with pytest.raises(Exception):
            Resource(engine, 1).release()

    def test_wait_time_tracked(self, engine):
        resource = Resource(engine, 1)

        def first():
            resource.acquire(lambda: None)
            yield engine.timeout(3.0)
            resource.release()

        def second():
            yield engine.timeout(0.0)
            # Queued at t=0; the grant hands the unit straight back.
            resource.acquire(resource.release)

        engine.process(first())
        engine.process(second())
        engine.run()
        assert resource.total_wait_time == pytest.approx(3.0)
        assert resource.in_use == 0


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("item")

        def proc():
            value = yield store.get()
            return value

        assert engine.run_process(proc()) == "item"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        arrival = []

        def consumer():
            value = yield store.get()
            arrival.append((engine.now, value))

        def producer():
            yield engine.timeout(3.0)
            store.put("late")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert arrival == [(3.0, "late")]

    def test_fifo_delivery(self, engine):
        store = Store(engine)
        for index in range(3):
            store.put(index)
        received = []

        def consumer():
            for _ in range(3):
                value = yield store.get()
                received.append(value)

        engine.run_process(consumer())
        assert received == [0, 1, 2]

    def test_len_and_max_depth(self, engine):
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.max_depth == 2

    def test_drain(self, engine):
        store = Store(engine)
        store.put("a")
        store.put("b")
        assert store.drain() == ["a", "b"]
        assert len(store) == 0

    def test_counters(self, engine):
        store = Store(engine)
        store.put(1)

        def consumer():
            yield store.get()

        engine.run_process(consumer())
        assert store.puts == 1
        assert store.gets == 1

    def test_waiting_getters_served_in_order(self, engine):
        store = Store(engine)
        received = []

        def consumer(name):
            value = yield store.get()
            received.append((name, value))

        engine.process(consumer("first"))
        engine.process(consumer("second"))

        def producer():
            yield engine.timeout(1.0)
            store.put("x")
            store.put("y")

        engine.process(producer())
        engine.run()
        assert received == [("first", "x"), ("second", "y")]
