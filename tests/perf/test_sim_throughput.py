"""Perf guard: simulator event throughput within 30% of the recorded number.

The reference lives in ``BENCH_hotpath.json`` (``sim_throughput``), written
by ``benchmarks/bench_sim_throughput.py`` on the machine that recorded it.
The measurement below replays exactly that workload: a mesh of
timeout-driven processes, half through the zero-delay immediate lane and
half through the event heap, with Timeout pooling enabled.
"""

import time

import pytest

from repro.perf.hotpath import load
from repro.sim import Environment

pytestmark = pytest.mark.perf

CHAINS = 64
DEPTH = 2_000


def measure_sim_throughput(repeats: int = 5) -> float:
    """Best-of-N events/second for the reference timeout-mesh workload."""
    best = 0.0
    for _ in range(repeats):
        env = Environment()

        def chain(i):
            delay = 0.0 if i % 2 == 0 else 1e-6 * (1 + i)
            for _ in range(DEPTH):
                yield env.timeout(delay)

        start = time.perf_counter()
        for i in range(CHAINS):
            env.process(chain(i), name=f"chain{i}")
        env.run()
        elapsed = time.perf_counter() - start
        best = max(best, env._eid / elapsed)
    return best


def test_sim_throughput_within_30_percent_of_recorded():
    ref = load().get("sim_throughput")
    if not ref or "events_per_second" not in ref:
        pytest.skip("no sim_throughput recorded in BENCH_hotpath.json")
    measured = measure_sim_throughput()
    floor = 0.7 * ref["events_per_second"]
    assert measured >= floor, (
        f"sim throughput regressed >30%: {measured / 1e6:.2f}M events/s vs "
        f"recorded {ref['events_per_second'] / 1e6:.2f}M events/s "
        f"({ref.get('workload', '?')})"
    )

