"""Fan independent figure/table runs across a process pool.

Every experiment builds its own deterministic :class:`~repro.sim.Environment`
(and seeds every RNG it uses explicitly), so distinct experiment ids share
no state at all -- they parallelize perfectly across worker processes. The
harness preserves the *submission* order of results regardless of worker
completion order, so ``--jobs N`` output is byte-for-byte the serial
output, just produced faster.

Each worker returns its wall-clock and a :mod:`repro.perf.stats` snapshot;
the parent merges the snapshots so the perf-stats footer covers the whole
fan-out, and records per-experiment wall-clock in ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..perf.hotpath import pipeline_file, record_wallclock, recording
from ..perf.stats import PERF

__all__ = ["RunResult", "run_one", "run_many"]


@dataclass
class RunResult:
    """The picklable outcome of one experiment run."""

    name: str
    scale: str
    elapsed: float
    text: str
    perf: Dict[str, int]


def _seed_for(name: str, scale: str) -> int:
    """A stable per-run seed (independent of PYTHONHASHSEED and job count)."""
    h = 2166136261
    for ch in f"{name}:{scale}".encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


# -- runners --------------------------------------------------------------------

def run_one(name: str, scale: str, shards: int = 1,
            record: bool = True) -> RunResult:
    """Run one experiment in this process (the pool's worker function).

    Resets the perf counters so the returned snapshot is attributable to
    this run alone, and seeds NumPy's legacy global RNG deterministically
    per (experiment, scale) -- the experiments already use explicit
    ``default_rng`` seeds, this just pins anything that might not.
    ``shards > 1`` is forwarded to experiments that accept it (``fig3``,
    ``faultmx``, ``scale``); others run sequentially as always. With
    ``record`` off, the ledgers an experiment pins itself (``scale``,
    ``scale1024``, ``coll``, ``conformance``) are left untouched.
    """
    import inspect

    from .experiments import EXPERIMENTS  # deferred: keep worker spawn cheap

    np.random.seed(_seed_for(name, scale))
    PERF.reset()
    fn = EXPERIMENTS[name]
    kwargs = {"scale": scale}
    if shards > 1 and "shards" in inspect.signature(fn).parameters:
        kwargs["shards"] = shards
    start = time.perf_counter()
    with recording(record):
        result = fn(**kwargs)
    elapsed = time.perf_counter() - start
    return RunResult(name, scale, elapsed, result["text"], PERF.snapshot())


def run_many(
    names: Sequence[str],
    scale: str = "full",
    jobs: Optional[int] = None,
    record: bool = True,
    shards: int = 1,
) -> List[RunResult]:
    """Run experiments, fanning across ``jobs`` worker processes.

    ``jobs`` of ``None`` or ``1`` runs serially in-process (no pool, no
    pickling). Results always come back in submission order; when
    ``record`` is set each run's wall-clock is written to
    ``BENCH_hotpath.json``, and when it is not, no ledger is written at
    all.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    if jobs is None or jobs == 1 or len(names) <= 1:
        results = [run_one(name, scale, shards, record) for name in names]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            futures = [
                pool.submit(run_one, name, scale, shards, record)
                for name in names
            ]
            results = [f.result() for f in futures]

    # Rebuild the parent's counters as the sum over all runs (run_one
    # resets per run, so in serial mode PERF would otherwise hold only
    # the last run's numbers).
    PERF.reset()
    for res in results:
        PERF.merge(res.perf)
        if record:
            record_wallclock(res.name, res.scale, res.elapsed)
            # Mirror into the pipeline before/after ledger so per-PR
            # wall-clock targets are pinned against their own baseline.
            record_wallclock(res.name, res.scale, res.elapsed,
                             path=pipeline_file())
    return results
