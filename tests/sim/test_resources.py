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


class _Taker(CallbackOp):
    """A callback op that logs ``(tag, item, now)`` once a store grants it."""

    __slots__ = ("env", "tag", "log")

    def __init__(self, env, tag, log):
        self.env, self.tag, self.log = env, tag, log
        self._step = _Taker._granted

    def _granted(self):
        self.log.append((self.tag, self.item, self.env.now))


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
            store.put("late")

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
            store.put("yes")

        p = env.process(consumer())
        env.process(producer())
        assert env.run(p) == ("yes", 2.0)
        assert store.peek_items() == ("nope",)

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
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_request_takes_a_kept_item_at_once(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        log = []
        store.request(_Taker(env, "op", log))
        assert store.peek_items() == ("b",) and store.queue_len == 0
        env.run()
        assert log == [("op", "a", 0.0)]

    def test_request_waits_for_put(self, env):
        store = Store(env)
        log = []
        op = _Taker(env, "op", log)
        store.request(op)
        assert store.queue_len == 1 and store.peek_waiters() == (op,)
        env.run()
        assert log == []
        store.put("late")
        assert store.queue_len == 0 and len(store) == 0
        env.run()
        assert log == [("op", "late", 0.0)]

    def test_put_skips_waiters_whose_filter_rejects_it(self, env):
        store = Store(env)
        log = []
        picky = _Taker(env, "picky", log)
        store.request(picky, lambda x: x == "wanted")
        store.request(_Taker(env, "any", log))
        store.put("other")
        assert store.peek_waiters() == (picky,)
        store.put("wanted")
        env.run()
        assert log == [("any", "other", 0.0), ("picky", "wanted", 0.0)]

    def test_filtered_request_leaves_rejected_items(self, env):
        store = Store(env)
        for i in range(4):
            store.put(i)
        log = []
        store.request(_Taker(env, "odd", log), lambda x: x % 2 == 1)
        env.run()
        assert log == [("odd", 1, 0.0)]
        assert store.peek_items() == (0, 2, 3)

    def test_ops_and_processes_share_one_fifo(self, env):
        store = Store(env)
        log = []
        store.request(_Taker(env, "op", log))

        def user():
            item = yield store.get()
            log.append(("process", item, env.now))

        env.process(user())
        env.run()
        store.request(_Taker(env, "late-op", log))
        for item in ("x", "y", "z"):
            store.put(item)
        env.run()
        assert log == [("op", "x", 0.0), ("process", "y", 0.0),
                       ("late-op", "z", 0.0)]

    def test_cancel_get_withdraws_a_waiter(self, env):
        store = Store(env)
        get = store.get()
        assert store.cancel_get(get)
        assert store.queue_len == 0
        store.put("kept")
        assert store.peek_items() == ("kept",)
        assert not get.triggered
        assert not store.cancel_get(get)

    def test_cancel_get_after_grant_returns_false(self, env):
        store = Store(env)
        get = store.get()
        store.put("x")
        assert get.triggered and get.value == "x"
        assert not store.cancel_get(get)
