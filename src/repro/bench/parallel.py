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

Result caching (``--cache``)
----------------------------
Experiments are deterministic functions of ``(name, scale, seed, code)``,
so with ``cache=True`` each run's outcome is stored in
``.bench_cache.json`` keyed on exactly that tuple -- the code component is
the git HEAD commit. A sweep after an unrelated edit + commit re-runs only
what the commit could have changed (in practice: everything after a commit
touching ``src/``, nothing on a re-run at the same HEAD). The cache is
disabled whenever the working tree is dirty: uncommitted edits make HEAD a
lie about the code that would run. Cached hits do not re-record wall-clock
pins (the stored elapsed is historical, not a fresh measurement).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..perf.hotpath import pipeline_file, record_wallclock, recording
from ..perf.stats import PERF

__all__ = ["RunResult", "run_one", "run_many"]

_CACHE_NAME = ".bench_cache.json"


@dataclass
class RunResult:
    """The picklable outcome of one experiment run."""

    name: str
    scale: str
    elapsed: float
    text: str
    perf: Dict[str, int]
    cached: bool = False


def _seed_for(name: str, scale: str) -> int:
    """A stable per-run seed (independent of PYTHONHASHSEED and job count)."""
    h = 2166136261
    for ch in f"{name}:{scale}".encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


# -- result cache ---------------------------------------------------------------

def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _cache_file() -> Path:
    env = os.environ.get("REPRO_BENCH_CACHE")
    if env:
        return Path(env)
    return _repo_root() / _CACHE_NAME


def _git_head() -> Optional[str]:
    """HEAD commit hash, or None when unknown or the tree is dirty."""
    root = _repo_root()
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        if status.returncode != 0 or status.stdout.strip():
            return None
        return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cache_key(name: str, scale: str, shards: int, head: str) -> str:
    return f"{name}:{scale}:{_seed_for(name, scale)}:{shards}:{head}"


def _cache_load() -> dict:
    try:
        with open(_cache_file()) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _cache_store(entries: Dict[str, dict]) -> None:
    if not entries:
        return
    data = _cache_load()
    data.update(entries)
    try:
        with open(_cache_file(), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError:  # pragma: no cover - read-only checkout
        pass


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
    cache: bool = False,
) -> List[RunResult]:
    """Run experiments, fanning across ``jobs`` worker processes.

    ``jobs`` of ``None`` or ``1`` runs serially in-process (no pool, no
    pickling). Results always come back in submission order; when
    ``record`` is set each run's wall-clock is written to
    ``BENCH_hotpath.json``, and when it is not, no ledger is written at
    all. With ``cache=True``, runs whose
    ``(name, scale, seed, git HEAD)`` key is already stored are served
    from ``.bench_cache.json`` instead of re-running (see module
    docstring for the invalidation rules).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    head = _git_head() if cache else None
    cached_results: Dict[str, RunResult] = {}
    if head is not None:
        stored = _cache_load()
        for name in names:
            hit = stored.get(_cache_key(name, scale, shards, head))
            if hit is not None:
                cached_results[name] = RunResult(
                    name, scale, hit["elapsed"], hit["text"],
                    {k: int(v) for k, v in hit["perf"].items()},
                    cached=True,
                )
    to_run = [n for n in names if n not in cached_results]

    if jobs is None or jobs == 1 or len(to_run) <= 1:
        fresh = [run_one(name, scale, shards, record) for name in to_run]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(to_run))) as pool:
            futures = [
                pool.submit(run_one, name, scale, shards, record)
                for name in to_run
            ]
            fresh = [f.result() for f in futures]

    if head is not None and fresh:
        _cache_store({
            _cache_key(res.name, res.scale, shards, head): {
                "elapsed": res.elapsed,
                "text": res.text,
                "perf": res.perf,
            }
            for res in fresh
        })

    by_name = {res.name: res for res in fresh}
    by_name.update(cached_results)
    results = [by_name[name] for name in names]

    # Rebuild the parent's counters as the sum over all runs (run_one
    # resets per run, so in serial mode PERF would otherwise hold only
    # the last run's numbers).
    PERF.reset()
    for res in results:
        PERF.merge(res.perf)
        if record and not res.cached:
            record_wallclock(res.name, res.scale, res.elapsed)
            # Mirror into the pipeline before/after ledger so per-PR
            # wall-clock targets are pinned against their own baseline.
            record_wallclock(res.name, res.scale, res.elapsed,
                             path=pipeline_file())
    return results
