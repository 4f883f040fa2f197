"""Simulator event throughput: how many events/second the kernel retires.

Not a paper figure -- this measures the *simulator's own* hot loop (the
event heap, the immediate lane, the pooled Timeout allocator, in-place
engine and pool grants), which is what the compiled-plan/pooled-event
work optimizes. Three workloads, each with half its chains advancing by
positive delays (heap path) and half by zero delays (immediate lane),
which together mirror the mix the 5-stage pipeline generates:

* a mesh of timeout-driven processes;
* chains of callback ops, each step a capacity-1 engine grant and a timed
  ``schedule_op`` step -- the path of every stream, HCA and chunk op;
* the same chains taking a pool buffer in place and putting it back
  instead -- the path of every chunk op's tbuf and vbuf.

Each kernel rate is printed beside its ratio to a bare ``heapq`` loop
running the same chains in the same process (of generators, and of
``(time, seq, callable)`` entries); ``tests/perf/test_sim_throughput.py``
guards the three ratios.
"""

import heapq
import itertools
import time

from repro.sim import CallbackOp, Environment, Resource, Store

CHAINS = 64
DEPTH = 2_000


def _delay(i: int) -> float:
    return 0.0 if i % 2 == 0 else 1e-6 * (1 + i)


def run_workload() -> Environment:
    """Drive the reference workload to completion; returns the environment."""
    env = Environment()

    def chain(i):
        delay = _delay(i)
        for _ in range(DEPTH):
            yield env.timeout(delay)

    for i in range(CHAINS):
        env.process(chain(i), name=f"chain{i}")
    env.run()
    return env


def run_bare() -> int:
    """The same chains on a bare heap of ``(time, seq, generator)``;
    returns the events popped."""

    def chain(i):
        delay = _delay(i)
        for _ in range(DEPTH):
            yield delay

    heap = [(0.0, i, chain(i)) for i in range(CHAINS)]
    seq, events = CHAINS, 0
    while heap:
        now, _, gen = heapq.heappop(heap)
        events += 1
        delay = next(gen, None)
        if delay is not None:
            heapq.heappush(heap, (now + delay, seq, gen))
            seq += 1
    return events


class _ChainOp(CallbackOp):
    """A callback op taking its engine, holding it ``delay`` and releasing
    it, ``DEPTH`` times over."""

    __slots__ = ("env", "engine", "delay", "left")

    def __init__(self, env, delay):
        self.env = env
        self.engine = Resource(env, capacity=1)
        self.delay = delay
        self.left = DEPTH
        self._request()

    def _request(self):
        self._step = _ChainOp._granted
        self.engine.request(self)

    def _granted(self):
        self._step = _ChainOp._done
        self.env.schedule_op(self, self.delay)

    def _done(self):
        self.engine.release()
        self.left -= 1
        if self.left:
            self._request()


class _PoolChainOp(CallbackOp):
    """A callback op taking the buffer of its pool in place, holding it
    ``delay`` and putting it back, ``DEPTH`` times over."""

    __slots__ = ("env", "pool", "delay", "left")

    def __init__(self, env, delay):
        self.env = env
        self.pool = Store(env)
        self.pool.put(bytearray(8))
        self.delay = delay
        self.left = DEPTH
        self._request()

    def _request(self):
        self._step = _PoolChainOp._granted
        self.pool.request(self)

    def _granted(self):
        self._step = _PoolChainOp._done
        self.env.schedule_op(self, self.delay)

    def _done(self):
        self.pool.put(self.item)
        self.left -= 1
        if self.left:
            self._request()


def run_op_workload(chain=_ChainOp) -> Environment:
    """Drive the callback-op chains to completion; returns the environment."""
    env = Environment()
    for i in range(CHAINS):
        chain(env, _delay(i))
    env.run()
    return env


def run_pool_workload() -> Environment:
    """Drive the pool-grant chains to completion; returns the environment."""
    return run_op_workload(_PoolChainOp)


def run_op_bare() -> int:
    """The same chains as ``(time, seq, callable)`` entries on a bare heap;
    returns the entries popped."""
    heap, seq = [], itertools.count()

    class Chain:
        __slots__ = ("delay", "left")

        def __init__(self, delay):
            self.delay, self.left = delay, DEPTH

        def granted(self, now):
            heapq.heappush(heap, (now + self.delay, next(seq), self.done))

        def done(self, now):
            self.left -= 1
            if self.left:
                heapq.heappush(heap, (now, next(seq), self.granted))

    for i in range(CHAINS):
        heapq.heappush(heap, (0.0, next(seq), Chain(_delay(i)).granted))
    entries = 0
    while heap:
        now, _, step = heapq.heappop(heap)
        step(now)
        entries += 1
    return entries


def measure(repeats: int = 3):
    """Best-of-N entries/second of the kernel and of the bare loop, for
    the process mesh and for the callback-op chains of engine and of pool
    grants."""
    rates = {}
    for name, kernel_run, bare_run in (
        ("processes", run_workload, run_bare),
        ("callback ops", run_op_workload, run_op_bare),
        ("pool grants", run_pool_workload, run_op_bare),
    ):
        kernel = bare = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            env = kernel_run()
            kernel = max(kernel, env._eid / (time.perf_counter() - start))
            start = time.perf_counter()
            entries = bare_run()
            bare = max(bare, entries / (time.perf_counter() - start))
        rates[name] = (kernel, bare)
    return rates


def test_sim_event_throughput(benchmark):
    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    kernel, bare = rates["processes"]
    op_kernel, op_bare = rates["callback ops"]
    pool_kernel, pool_bare = rates["pool grants"]
    benchmark.extra_info["events_per_second"] = round(kernel)
    benchmark.extra_info["ratio_to_bare_loop"] = round(kernel / bare, 3)
    benchmark.extra_info["op_entries_per_second"] = round(op_kernel)
    benchmark.extra_info["op_ratio_to_bare_loop"] = round(op_kernel / op_bare, 3)
    benchmark.extra_info["pool_entries_per_second"] = round(pool_kernel)
    benchmark.extra_info["pool_ratio_to_bare_loop"] = round(
        pool_kernel / pool_bare, 3)
    for name, (k, b) in rates.items():
        print(f"\nsim throughput ({name}): {k / 1e6:.2f}M entries/s, "
              f"{k / b:.2f}x a bare heapq loop")
    assert kernel > 0 and op_kernel > 0 and pool_kernel > 0
