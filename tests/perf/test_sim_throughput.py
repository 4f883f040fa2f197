"""Perf guard: simulator event throughput relative to a bare event loop.

The workload is a mesh of timeout-driven processes, half through the
zero-delay immediate lane and half through the event heap. Each round
runs it once on :class:`~repro.sim.Environment` and once on a bare
``heapq`` + generator loop, interleaved, and divides the kernel's
events/second by the bare loop's. Both run in one process on one host, so
the ratio measures the kernel's own cost per event, not the speed of the
host. A median below 70% of the pinned ratio fails.
"""

import heapq
import statistics
import time

import pytest

from repro.sim import Environment

pytestmark = pytest.mark.perf

CHAINS = 64
DEPTH = 2_000
ROUNDS = 7
#: Median kernel/bare events-per-second ratio, pinned at the measured median.
PINNED = 0.61


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


def test_sim_throughput_within_30_percent_of_recorded():
    ratio = measure_ratio()
    floor = 0.7 * PINNED
    assert ratio >= floor, (
        f"sim kernel fell to {ratio:.2f}x the events/s of a bare heapq "
        f"loop (pinned {PINNED:.2f}x, floor {floor:.2f}x)"
    )
