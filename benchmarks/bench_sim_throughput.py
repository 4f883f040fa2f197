"""Simulator event throughput: how many events/second the kernel retires.

Not a paper figure -- this measures the *simulator's own* hot loop (the
event heap, the immediate lane, the pooled Timeout allocator), which is
what the compiled-plan/pooled-event work optimizes. The workload is a mesh
of timeout-driven processes: half advance by positive delays (heap path),
half by zero delays (immediate lane), which together mirror the mix the
5-stage pipeline generates.

Recording: the measured events/second is written to ``BENCH_hotpath.json``
as ``sim_throughput`` and guarded by ``tests/perf/test_sim_throughput.py``
(>30% below the recorded figure fails the perf tier).
"""

import time

from repro.perf.hotpath import record_sim_throughput
from repro.sim import Environment

CHAINS = 64
DEPTH = 2_000
WORKLOAD = (
    f"{CHAINS} timeout chains x {DEPTH} deep, half zero-delay "
    "(immediate lane), half positive-delay (heap)"
)


def run_workload() -> Environment:
    """Drive the reference workload to completion; returns the environment."""
    env = Environment()

    def chain(i):
        delay = 0.0 if i % 2 == 0 else 1e-6 * (1 + i)
        for _ in range(DEPTH):
            yield env.timeout(delay)

    for i in range(CHAINS):
        env.process(chain(i), name=f"chain{i}")
    env.run()
    return env


def measure_events_per_second(repeats: int = 3) -> float:
    """Best-of-N events/second (scheduled events over wall-clock)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        env = run_workload()
        elapsed = time.perf_counter() - start
        best = max(best, env._eid / elapsed)
    return best


def test_sim_event_throughput(benchmark):
    eps = benchmark.pedantic(measure_events_per_second, rounds=1, iterations=1)
    benchmark.extra_info["events_per_second"] = round(eps)
    record_sim_throughput(eps, WORKLOAD)
    print(f"\nsim throughput: {eps / 1e6:.2f}M events/s")
    assert eps > 0

