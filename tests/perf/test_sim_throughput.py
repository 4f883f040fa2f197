"""Perf guards: simulator event throughput relative to a bare event loop.

Three workloads, each half through the zero-delay immediate lane and half
through the event heap:

* a mesh of timeout-driven processes, against a bare ``heapq`` +
  generator loop;
* chains of callback ops, each step a capacity-1 engine grant and a
  timed :meth:`~repro.sim.Environment.schedule_op` step (the path every
  stream, HCA and chunk op takes), against a bare ``heapq`` loop of
  ``(time, seq, callable)`` entries;
* the same chains taking a buffer from a pool in place instead of an
  engine, and putting it back (the path of every chunk op's tbuf and
  vbuf), against the same bare loop.

Each round runs a workload once on :class:`~repro.sim.Environment` and
once on its bare loop, interleaved, and divides the kernel's queue
entries/second by the bare loop's. Both run in one process on one host,
so the ratio measures the kernel's own cost per entry, not the speed of
the host. A median below 70% of the pinned ratio fails.
"""

import heapq
import itertools
import statistics
import time

import pytest

from repro.sim import CallbackOp, Environment, Resource, Store

pytestmark = pytest.mark.perf

CHAINS = 64
DEPTH = 2_000
ROUNDS = 7
#: Median kernel/bare events-per-second ratios, pinned at the measured median.
PINNED = 0.61
PINNED_OPS = 0.91
PINNED_POOL = 0.81


def _delay(i: int) -> float:
    return 0.0 if i % 2 == 0 else 1e-6 * (1 + i)


def kernel_events_per_second() -> float:
    env = Environment()

    def chain(i):
        delay = _delay(i)
        for _ in range(DEPTH):
            yield env.timeout(delay)

    start = time.perf_counter()
    for i in range(CHAINS):
        env.process(chain(i), name=f"chain{i}")
    env.run()
    return env._eid / (time.perf_counter() - start)


def bare_events_per_second() -> float:
    """The same chains on a bare heap of ``(time, seq, generator)``."""

    def chain(i):
        delay = _delay(i)
        for _ in range(DEPTH):
            yield delay

    start = time.perf_counter()
    heap = [(0.0, i, chain(i)) for i in range(CHAINS)]
    seq, events = CHAINS, 0
    while heap:
        now, _, gen = heapq.heappop(heap)
        events += 1
        delay = next(gen, None)
        if delay is not None:
            heapq.heappush(heap, (now + delay, seq, gen))
            seq += 1
    return events / (time.perf_counter() - start)


def measure_ratio() -> float:
    """Median over ``ROUNDS`` of kernel events/s over bare-loop events/s."""
    return statistics.median(
        kernel_events_per_second() / bare_events_per_second()
        for _ in range(ROUNDS)
    )


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


def kernel_op_entries_per_second(chain=_ChainOp) -> float:
    env = Environment()
    start = time.perf_counter()
    for i in range(CHAINS):
        chain(env, _delay(i))
    env.run()
    return env._eid / (time.perf_counter() - start)


def bare_op_entries_per_second() -> float:
    """The same chains as ``(time, seq, callable)`` entries on a bare heap."""
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

    start = time.perf_counter()
    for i in range(CHAINS):
        heapq.heappush(heap, (0.0, next(seq), Chain(_delay(i)).granted))
    entries = 0
    while heap:
        now, _, step = heapq.heappop(heap)
        step(now)
        entries += 1
    return entries / (time.perf_counter() - start)


def measure_op_ratio(chain=_ChainOp) -> float:
    """Median over ``ROUNDS`` of kernel over bare-loop entries/s for the
    callback-op chains (of engine grants, or of pool grants with
    ``chain=_PoolChainOp``)."""
    return statistics.median(
        kernel_op_entries_per_second(chain) / bare_op_entries_per_second()
        for _ in range(ROUNDS)
    )


def test_sim_throughput_within_30_percent_of_recorded():
    ratio = measure_ratio()
    floor = 0.7 * PINNED
    assert ratio >= floor, (
        f"sim kernel fell to {ratio:.2f}x the events/s of a bare heapq "
        f"loop (pinned {PINNED:.2f}x, floor {floor:.2f}x)"
    )


def test_callback_op_throughput_within_30_percent_of_recorded():
    ratio = measure_op_ratio()
    floor = 0.7 * PINNED_OPS
    assert ratio >= floor, (
        f"callback-op steps fell to {ratio:.2f}x the entries/s of a bare "
        f"heapq loop (pinned {PINNED_OPS:.2f}x, floor {floor:.2f}x)"
    )


def test_pool_grant_throughput_within_30_percent_of_recorded():
    ratio = measure_op_ratio(_PoolChainOp)
    floor = 0.7 * PINNED_POOL
    assert ratio >= floor, (
        f"pool-grant op steps fell to {ratio:.2f}x the entries/s of a bare "
        f"heapq loop (pinned {PINNED_POOL:.2f}x, floor {floor:.2f}x)"
    )
