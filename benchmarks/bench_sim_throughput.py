"""Simulator event throughput: how many events/second the kernel retires.

Not a paper figure -- this measures the *simulator's own* hot loop (the
event heap, the immediate lane, the pooled Timeout allocator), which is
what the compiled-plan/pooled-event work optimizes. The workload is a mesh
of timeout-driven processes: half advance by positive delays (heap path),
half by zero delays (immediate lane), which together mirror the mix the
5-stage pipeline generates.

The kernel's events/second is printed beside its ratio to a bare
``heapq`` + generator loop running the same chains in the same process;
``tests/perf/test_sim_throughput.py`` guards that ratio.
"""

import heapq
import time

from repro.sim import Environment

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


def measure(repeats: int = 3):
    """Best-of-N events/second of the kernel and of the bare loop."""
    kernel = bare = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        env = run_workload()
        kernel = max(kernel, env._eid / (time.perf_counter() - start))
        start = time.perf_counter()
        events = run_bare()
        bare = max(bare, events / (time.perf_counter() - start))
    return kernel, bare


def test_sim_event_throughput(benchmark):
    kernel, bare = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["events_per_second"] = round(kernel)
    benchmark.extra_info["ratio_to_bare_loop"] = round(kernel / bare, 3)
    print(f"\nsim throughput: {kernel / 1e6:.2f}M events/s, "
          f"{kernel / bare:.2f}x a bare heapq loop")
    assert kernel > 0
