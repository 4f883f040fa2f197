"""Performance instrumentation for the simulator's wall-clock hot paths.

This package never influences *simulated* time -- it measures the cost of
running the simulator itself and pins what the benchmark experiments
measured:

* :mod:`repro.perf.stats` -- process-wide counters for the datatype
  segment-compilation cache (hits/misses) and the pack/unpack copy
  paths.
* :mod:`repro.perf.ledger` -- the ``BENCH_sim.json`` (simulated seconds)
  and ``BENCH_shard.json`` (sequential-vs-sharded wall-clock) ledgers,
  each entry a baseline and an optimized run measured in the same run.
"""

from .stats import PERF, PerfStats

__all__ = ["PERF", "PerfStats"]
