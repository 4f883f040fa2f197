"""Unit tests for process coroutines and the callback-op helpers."""

from collections import deque

import pytest

from repro.sim import (
    CallbackOp, Environment, Race, Resource, SimulationError, Store, Wakeup,
    wait,
)


@pytest.fixture
def env():
    return Environment()


class TestBasicProcesses:
    def test_process_advances_clock(self, env):
        def proc():
            yield env.timeout(3.0)
            yield env.timeout(4.0)
            return "done"

        p = env.process(proc())
        result = env.run(p)
        assert result == "done"
        assert env.now == 7.0

    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return 123

        assert env.run(env.process(proc())) == 123

    def test_process_receives_event_value(self, env):
        def proc():
            got = yield env.timeout(1.0, value="payload")
            return got

        assert env.run(env.process(proc())) == "payload"

    def test_processes_interleave(self, env):
        log = []

        def worker(name, delay):
            for i in range(3):
                yield env.timeout(delay)
                log.append((name, env.now))

        env.process(worker("a", 1.0))
        env.process(worker("b", 1.5))
        env.run()
        # At t=3.0 both fire; "b" scheduled its timeout earlier (t=1.5 vs
        # t=2.0) so FIFO tie-breaking resumes it first.
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]

    def test_process_waits_on_another_process(self, env):
        def child():
            yield env.timeout(2.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return result

        assert env.run(env.process(parent())) == "child-result"
        assert env.now == 2.0

    def test_yield_from_composition(self, env):
        def inner():
            yield env.timeout(1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert env.run(env.process(outer())) == 20
        assert env.now == 2.0

    def test_process_waiting_on_already_processed_event(self, env):
        ev = env.timeout(0.0, value="early")
        env.run()
        assert ev.processed

        def proc():
            got = yield ev
            return got

        assert env.run(env.process(proc())) == "early"

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 42

        p = env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run(p)

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1.0)
            raise KeyError("inner")

        p = env.process(proc())
        with pytest.raises(KeyError):
            env.run(p)

    def test_failed_event_thrown_into_waiter(self, env):
        failing = env.event()

        def failer():
            yield env.timeout(1.0)
            failing.fail(RuntimeError("expected"))

        def waiter():
            try:
                yield failing
            except RuntimeError as exc:
                return f"caught:{exc}"

        env.process(failer())
        p = env.process(waiter())
        assert env.run(p) == "caught:expected"


class TestRunControl:
    def test_run_until_time(self, env):
        ticks = []

        def clock():
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clock())
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self, env):
        env.timeout(10.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_event_deadlock_detected(self, env):
        never = env.event()
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(never)

    def test_run_empty_schedule_returns_none(self, env):
        assert env.run() is None

    def test_peek_empty(self, env):
        assert env.peek() == float("inf")


class TestCallbackOpHelpers:
    """``wait`` schedules exactly what a process's ``yield`` would."""

    def test_wait_on_processed_event_continues_at_once(self, env):
        ev = env.event()
        ev.succeed("v")
        env.run()
        seen = []
        wait(ev, lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_wait_on_triggered_event_continues_when_processed(self, env):
        # A process yielding an already triggered event resumes only when
        # it is processed, after events scheduled before it; so must wait.
        log = []
        first = env.event()
        first.callbacks.append(lambda _e: log.append("first"))
        first.succeed()
        ev = env.event()
        ev.succeed()
        wait(ev, lambda _e: log.append("waiter"))
        assert log == []
        env.run()
        assert log == ["first", "waiter"]


class _Step(CallbackOp):
    """A callback op whose one step calls ``fn()``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn
        self._step = _Step._run

    def _run(self):
        self.fn()


class _RequestEngine:
    """A capacity-1 FIFO granting each waiter by succeeding a fresh event,
    as ``Request.succeed()`` did before grants went in place."""

    def __init__(self, env):
        self.env = env
        self.busy = False
        self.waiting = deque()

    def request(self, fn):
        event = self.env.event()
        event.callbacks.append(lambda _e: fn())
        if self.busy:
            self.waiting.append(event)
        else:
            self.busy = True
            event.succeed()

    def release(self):
        if self.waiting:
            self.waiting.popleft().succeed()
        else:
            self.busy = False


def _slot_order(in_place: bool):
    """Log and final sequence number of one schedule, built with callback
    op entries (``in_place``) or with a pooled timeout and a succeeding
    event at the same points, among timeouts created before and after."""
    env = Environment()
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    engine = Resource(env, capacity=1) if in_place else _RequestEngine(env)

    def step(delay, fn):
        if in_place:
            env.schedule_op(_Step(fn), delay)
        else:
            env.timeout(delay).callbacks.append(lambda _e: fn())

    def grant(tag):
        fn = note(tag)
        engine.request(_Step(fn) if in_place else fn)

    def release_at_one():
        note("step-1")()
        engine.release()  # grants "grant-b" now, behind "after-1"

    env.timeout(0.0).callbacks.append(note("before-0"))
    env.timeout(1.0).callbacks.append(note("before-1"))
    step(0.0, note("step-0"))
    step(1.0, release_at_one)
    grant("grant-a")
    grant("grant-b")
    env.timeout(0.0).callbacks.append(note("after-0"))
    env.timeout(1.0).callbacks.append(note("after-1"))
    env.run()
    return log, env._eid


class _Take(CallbackOp):
    """A callback op that calls ``fn(item)`` once a store grants it."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn
        self._step = _Take._run

    def _run(self):
        self.fn(self.item)


def _store_slot_order(in_place: bool):
    """Log and final sequence number of one schedule in which a store
    grants ops in place (``in_place``) or succeeds a ``StoreGet`` per
    waiter, at the same points, among timeouts created before and after.

    One item is in the store when it is asked for; later, a put passes a
    filtered waiter that does not accept it, queued ahead of one that does.
    """
    env = Environment()
    store = Store(env)
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    def take(tag, filt=None):
        def fn(item):
            log.append((f"{tag}={item}", env.now))

        if in_place:
            store.request(_Take(fn), filt)
        else:
            store.get(filt).callbacks.append(lambda e: fn(e.value))

    def put_at_one():
        note("step-1")()
        store.put("other")  # passes "picky", grants "any" behind "after-1"
        store.put("wanted")

    store.put("early")
    env.timeout(0.0).callbacks.append(note("before-0"))
    env.timeout(1.0).callbacks.append(note("before-1"))
    take("present")
    take("picky", lambda item: item == "wanted")
    take("any")
    env.timeout(1.0).callbacks.append(lambda _e: put_at_one())
    env.timeout(0.0).callbacks.append(note("after-0"))
    env.timeout(1.0).callbacks.append(note("after-1"))
    env.run()
    return log, env._eid


def _countdown_slot_order(in_place: bool):
    """Log and final sequence number of one schedule in which three tasks
    finish at mixed times and a waiter continues once all have.

    In place, each finishing task queues itself and counts down there,
    and the last one then queues the waiting op. Otherwise each task
    succeeds a done event and a process yields the ``AllOf`` over them.
    Timeouts are created before and after, and the waiter starts with a
    kick (the op) or a process start.
    """
    env = Environment()
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    finish_at = (2.0, 1.0, 2.0)  # two of them in one instant
    env.timeout(0.0).callbacks.append(note("before-0"))
    env.timeout(2.0).callbacks.append(note("before-2"))
    if in_place:
        left = [len(finish_at)]
        waiter = _Step(lambda: None)  # its kick only waits
        env.schedule_op(waiter)

        def finish(i):
            def counted():
                log.append((f"counted-{i}", env.now))
                left[0] -= 1
                if not left[0]:
                    waiter.fn = note("all")
                    env.schedule_op(waiter)

            log.append((f"finish-{i}", env.now))
            env.schedule_op(_Step(counted))
    else:
        dones = [env.event() for _ in finish_at]

        def counted(i):
            return lambda _e: log.append((f"counted-{i}", env.now))

        for i, done in enumerate(dones):
            done.callbacks.append(counted(i))

        def waiting():
            yield env.all_of(dones)
            note("all")()

        env.process(waiting())

        def finish(i):
            log.append((f"finish-{i}", env.now))
            dones[i].succeed()

    for i, at in enumerate(finish_at):
        env.timeout(at).callbacks.append(lambda _e, i=i: finish(i))
    env.timeout(2.0).callbacks.append(note("after-2"))
    env.run()
    return log, env._eid


def _wakeup_slot_order(in_place: bool):
    """Log and final sequence number of one schedule in which waiters
    attach to a wake-up (``in_place``) or to one event carrying their
    callbacks, among timeouts created before and after. One waiter
    attaches after the firing, in its step, and one once the wake-up has
    run."""
    env = Environment()
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    def then_step(tag):
        def fn(*_):
            note(tag)()
            env.timeout(0.0).callbacks.append(note(f"{tag}-next"))
        return fn

    if in_place:
        wakeup = Wakeup(env)

        def attach(tag):
            wakeup.wait(_Step(then_step(tag)))

        fire = wakeup.fire
    else:
        event = env.event()

        def attach(tag):
            wait(event, then_step(tag))

        fire = event.succeed

    def fire_at_one():
        note("fire")()
        fire()
        attach("late")  # queued behind the firing: runs in its slot

    env.timeout(1.0).callbacks.append(note("before-1"))
    attach("first")
    attach("second")
    env.timeout(1.0).callbacks.append(lambda _e: fire_at_one())
    env.timeout(1.0).callbacks.append(note("after-1"))
    env.timeout(2.0).callbacks.append(lambda _e: attach("done"))  # at once
    env.run()
    return log, env._eid


def _race_slot_order(in_place: bool, put_at: float):
    """Log and final sequence number of one schedule in which a wait for
    a store item races a 2 s deadline: a :class:`Race` started by an op's
    kick (``in_place``), or a process yielding
    ``AnyOf([store.get(), env.timeout(2.0)])``. The item is put at
    ``put_at`` by a timeout created just after the wait starts, among
    timeouts created before and after; the log ends with what the store
    keeps and how many wait on it."""
    env = Environment()
    store = Store(env)
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    def put(_e):
        note("put")()
        store.put("item")

    env.timeout(2.0).callbacks.append(note("before-2"))
    if in_place:
        op = _Step(None)

        def start():
            race = Race(op, _Step._run, store, 2.0)
            op.fn = lambda: log.append(
                (f"won={race.item}" if race.won() else "lost", env.now))
            env.timeout(put_at).callbacks.append(put)

        env.schedule_op(_Step(start))
    else:
        def waiter():
            get = store.get()
            raced = env.any_of([get, env.timeout(2.0)])
            env.timeout(put_at).callbacks.append(put)
            yield raced
            if get.triggered:
                log.append((f"won={get.value}", env.now))
            else:
                store.cancel_get(get)
                log.append(("lost", env.now))
            # Keep waiting: a process that returns queues a completion
            # entry, which an op has no counterpart of.
            yield env.event()

        env.process(waiter())
    env.timeout(2.0).callbacks.append(note("after-2"))
    env.run()
    log.append((store.peek_items(), store.queue_len))
    return log, env._eid


class TestCallbackOpSlots:
    def test_op_steps_and_grants_take_timeout_and_request_slots(self):
        ops = _slot_order(in_place=True)
        assert ops == _slot_order(in_place=False)
        assert ops == ([
            ("before-0", 0.0), ("step-0", 0.0), ("grant-a", 0.0),
            ("after-0", 0.0), ("before-1", 1.0), ("step-1", 1.0),
            ("after-1", 1.0), ("grant-b", 1.0),
        ], 8)

    def test_store_grants_take_store_get_slots(self):
        ops = _store_slot_order(in_place=True)
        assert ops == _store_slot_order(in_place=False)
        assert ops == ([
            ("before-0", 0.0), ("present=early", 0.0), ("after-0", 0.0),
            ("before-1", 1.0), ("step-1", 1.0), ("after-1", 1.0),
            ("any=other", 1.0), ("picky=wanted", 1.0),
        ], 8)

    def test_countdown_takes_done_and_all_of_slots(self):
        ops, seq = _countdown_slot_order(in_place=True)
        events, event_seq = _countdown_slot_order(in_place=False)
        assert ops == events
        assert ops == [
            ("before-0", 0.0), ("finish-1", 1.0), ("counted-1", 1.0),
            ("before-2", 2.0), ("finish-0", 2.0), ("finish-2", 2.0),
            ("after-2", 2.0), ("counted-0", 2.0), ("counted-2", 2.0),
            ("all", 2.0),
        ]
        # The same slots, less the process's completion entry, which
        # nothing waits on.
        assert seq == event_seq - 1

    def test_wakeup_takes_the_event_slot_and_runs_waiters_in_order(self):
        ops = _wakeup_slot_order(in_place=True)
        assert ops == _wakeup_slot_order(in_place=False)
        assert ops == ([
            ("before-1", 1.0), ("fire", 1.0), ("after-1", 1.0),
            ("first", 1.0), ("second", 1.0), ("late", 1.0),
            ("first-next", 1.0), ("second-next", 1.0), ("late-next", 1.0),
            ("done", 2.0), ("done-next", 2.0),
        ], 9)

    @pytest.mark.parametrize("put_at,expected", [
        pytest.param(1.0, [
            ("put", 1.0), ("won=item", 1.0), ("before-2", 2.0),
            ("after-2", 2.0), ((), 0),
        ], id="grant-first"),
        # The deadline, created in the kick, runs after both timeouts
        # created before the run; the lost wait is withdrawn, so the
        # later put is kept.
        pytest.param(3.0, [
            ("before-2", 2.0), ("after-2", 2.0), ("lost", 2.0),
            ("put", 3.0), (("item",), 0),
        ], id="deadline-first"),
        # Put by a timeout created after the deadline: the deadline runs
        # first, the grant lands in its instant, and the wait keeps it.
        pytest.param(2.0, [
            ("before-2", 2.0), ("after-2", 2.0), ("put", 2.0),
            ("won=item", 2.0), ((), 0),
        ], id="grant-at-the-deadline"),
    ])
    def test_race_takes_the_any_of_schedule(self, put_at, expected):
        ops = _race_slot_order(True, put_at)
        assert ops == _race_slot_order(False, put_at)
        assert ops[0] == expected


class TestWakeup:
    def test_fires_once(self, env):
        wakeup = Wakeup(env)
        wakeup.fire()
        with pytest.raises(SimulationError, match="fired twice"):
            wakeup.fire()

    def test_wait_after_processing_runs_at_once(self, env):
        wakeup = Wakeup(env)
        ran = []
        wakeup.wait(_Step(lambda: ran.append(env.now)))
        wakeup.fire()
        env.run()
        assert ran == [0.0] and wakeup.processed
        wakeup.wait(_Step(lambda: ran.append("late")))
        assert ran == [0.0, "late"]
