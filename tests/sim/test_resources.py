"""Unit tests for Resource and Store."""

import pytest

from repro.sim import CallbackOp, Environment, Resource, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class _Op(CallbackOp):
    """A callback op that logs ``(tag, now)`` when granted, then holds its
    unit for ``hold`` before releasing it (None: keeps it)."""

    __slots__ = ("env", "res", "tag", "hold", "log")

    def __init__(self, env, res, tag, log, hold=None):
        self.env, self.res, self.tag, self.log, self.hold = env, res, tag, log, hold
        self._step = _Op._granted

    def _granted(self):
        self.log.append((self.tag, self.env.now))
        if self.hold is not None:
            self._step = _Op._release
            self.env.schedule_op(self, self.hold)

    def _release(self):
        self.res.release()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        log = []
        res.request(_Op(env, res, "a", log))
        res.request(_Op(env, res, "b", log))
        assert res.count == 2 and res.queue_len == 0
        env.run()
        assert log == [("a", 0.0), ("b", 0.0)]

    def test_over_capacity_waits(self, env):
        res = Resource(env, capacity=1)
        log = []
        res.request(_Op(env, res, "a", log))
        res.request(_Op(env, res, "b", log))
        assert res.count == 1 and res.queue_len == 1
        env.run()
        assert log == [("a", 0.0)]
        res.release()
        assert res.count == 1 and res.queue_len == 0
        env.run()
        assert log == [("a", 0.0), ("b", 0.0)]

    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        log = []
        for i in range(4):
            res.request(_Op(env, res, i, log, hold=1.0))
        env.run()
        assert log == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]
        assert res.count == 0

    def test_process_acquire_and_release(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(name):
            yield res.acquire()
            log.append((name, env.now))
            yield env.timeout(1.0)
            res.release()

        for name in ("p", "q"):
            env.process(user(name))
        env.run()
        assert log == [("p", 0.0), ("q", 1.0)]
        assert res.count == 0

    def test_ops_and_processes_share_one_fifo(self, env):
        res = Resource(env, capacity=1)
        log = []
        res.request(_Op(env, res, "op", log, hold=1.0))

        def user():
            yield res.acquire()
            log.append(("process", env.now))
            yield env.timeout(1.0)
            res.release()

        env.process(user())
        res.request(_Op(env, res, "late-op", log, hold=1.0))
        env.run()
        # The process asks when its init event runs, after late-op asked.
        assert log == [("op", 0.0), ("late-op", 1.0), ("process", 2.0)]

    def test_release_of_idle_resource_raises(self, env):
        res = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.release()
        res.request(_Op(env, res, "a", []))
        res.release()
        with pytest.raises(SimulationError):
            res.release()

    def test_parallel_capacity_two(self, env):
        res = Resource(env, capacity=2)
        finish = []

        def user(name):
            yield res.acquire()
            yield env.timeout(1.0)
            finish.append((name, env.now))
            res.release()

        for i in range(4):
            env.process(user(i))
        env.run()
        assert finish == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return item

        store.put("x")
        p = env.process(consumer())
        assert env.run(p) == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        def producer():
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == ["late"]
        assert env.now == 3.0

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield store.get()))

        env.run(env.process(consumer()))
        assert got == [0, 1, 2, 3, 4]

    def test_filtered_get(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)

        def consumer():
            item = yield store.get(lambda x: x % 2 == 1)
            return item

        assert env.run(env.process(consumer())) == 1
        assert store.peek_items() == (0, 2, 3, 4)

    def test_filtered_get_waits_for_matching_item(self, env):
        store = Store(env)
        store.put("nope")

        def consumer():
            item = yield store.get(lambda x: x == "yes")
            return (item, env.now)

        def producer():
            yield env.timeout(2.0)
            yield store.put("yes")

        p = env.process(consumer())
        env.process(producer())
        assert env.run(p) == ("yes", 2.0)
        assert store.peek_items() == ("nope",)

    def test_bounded_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer():
            yield store.put("a")
            done.append(("a", env.now))
            yield store.put("b")
            done.append(("b", env.now))

        def consumer():
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert done == [("a", 0.0), ("b", 5.0)]

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            yield store.put("x")
            yield store.put("y")

        env.process(producer())
        env.run()
        assert got == [("first", "x"), ("second", "y")]
