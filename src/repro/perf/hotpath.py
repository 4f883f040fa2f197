"""The ``BENCH_hotpath.json`` emitter: machine-readable perf trajectory.

Every benchmark run records its wall-clock per experiment id here, keyed
``"<experiment>:<scale>"``. The ``before`` number is pinned the first time
an entry is written (the pre-optimization baseline of the PR that created
it) and is never overwritten; ``after`` tracks the most recent run, so
``before / after`` is the cumulative speedup relative to that baseline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

__all__ = [
    "hotpath_file",
    "pipeline_file",
    "shard_file",
    "tune_file",
    "backend_file",
    "coll_file",
    "load",
    "recording",
    "record_wallclock",
    "record_shard_wallclock",
    "record_tuned_comparison",
    "record_backend_comparison",
    "record_coll_comparison",
]

_DEFAULT_NAME = "BENCH_hotpath.json"
_PIPELINE_NAME = "BENCH_pipeline.json"
_SHARD_NAME = "BENCH_shard.json"
_TUNE_NAME = "BENCH_tune.json"
_BACKEND_NAME = "BENCH_backend.json"
_COLL_NAME = "BENCH_coll.json"


def _resolve(env_var: str, default_name: str) -> Path:
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    # Repo root = three levels above src/repro/perf/.
    root = Path(__file__).resolve().parents[3]
    candidate = root / default_name
    if candidate.parent.is_dir():
        return candidate
    return Path.cwd() / default_name


def hotpath_file() -> Path:
    """Resolve the JSON path: ``$REPRO_BENCH_HOTPATH`` or repo root."""
    return _resolve("REPRO_BENCH_HOTPATH", _DEFAULT_NAME)


def pipeline_file() -> Path:
    """Resolve ``BENCH_pipeline.json``: ``$REPRO_BENCH_PIPELINE`` or root.

    The pipeline file carries the before/after wall-clock ledger of the
    compiled-plan + pooled-event work, in the same schema as the hotpath
    file (``before`` pinned on first write, ``after`` tracking the latest
    run).
    """
    return _resolve("REPRO_BENCH_PIPELINE", _PIPELINE_NAME)


def shard_file() -> Path:
    """Resolve ``BENCH_shard.json``: ``$REPRO_BENCH_SHARD`` or repo root.

    The shard file is a *comparison* ledger, not a trajectory: each entry's
    ``before`` is the sequential wall-clock and ``after`` the sharded
    wall-clock of the *same* run, so ``speedup`` is the parallel speedup of
    the sharded engine on that workload (written by the ``scale``
    experiment).
    """
    return _resolve("REPRO_BENCH_SHARD", _SHARD_NAME)


def tune_file() -> Path:
    """Resolve ``BENCH_tune.json``: ``$REPRO_BENCH_TUNE`` or repo root.

    A comparison ledger like the shard file, but over *simulated* seconds:
    each entry pins the 64 KB-default latency (``before``) against the
    tuned-table latency (``after``) for one (experiment, size-bucket) key,
    written by ``python -m repro.tune apply``. ``speedup`` >= 1.0 is the
    Hunold-style guideline (tuned no slower than default) the CI smoke
    job asserts.
    """
    return _resolve("REPRO_BENCH_TUNE", _TUNE_NAME)


def backend_file() -> Path:
    """Resolve ``BENCH_backend.json``: ``$REPRO_BENCH_BACKEND`` or root.

    A comparison ledger over *simulated* seconds, written by the
    ``conformance`` experiment: each entry pins the default-backend
    latency (``before``) against the tuned-chooser latency (``after``)
    for one (layout, size-bucket) key, alongside the backend the chooser
    picked. ``speedup`` >= 1.0 on every entry -- and > 1.0 on at least
    one -- is the Hunold/Träff gate the ``backend-conformance`` CI job
    asserts.
    """
    return _resolve("REPRO_BENCH_BACKEND", _BACKEND_NAME)


def coll_file() -> Path:
    """Resolve ``BENCH_coll.json``: ``$REPRO_BENCH_COLL`` or repo root.

    A comparison ledger over *simulated* seconds, written by the ``coll``
    experiment: each entry pins the naive pack-then-exchange collective
    (``before`` -- every block staged through a blocking host pack and
    shipped as contiguous bytes) against the datatype-aware ``Alltoallv``
    (``after`` -- each peer block one tuned pipeline flow) on the same
    layout and size bucket. The CI gate requires ``speedup`` >= 1.2 on at
    least one bucket.
    """
    return _resolve("REPRO_BENCH_COLL", _COLL_NAME)


def load(path: Optional[Path] = None) -> dict:
    path = path or hotpath_file()
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"schema": 1, "experiments": {}}


#: Cleared by :func:`recording` to make every ledger write a no-op.
_RECORDING = True


@contextmanager
def recording(enabled: bool) -> Iterator[None]:
    """Enable or suppress every ledger write in this process for a block.

    The ``record_*`` helpers still compute and return their entries; only
    the file write is skipped (``python -m repro.bench --no-record``).
    """
    global _RECORDING
    saved, _RECORDING = _RECORDING, enabled
    try:
        yield
    finally:
        _RECORDING = saved


def _save(data: dict, path: Optional[Path] = None) -> None:
    if not _RECORDING:
        return
    path = path or hotpath_file()
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError:
        # Benchmarking from a read-only checkout must not crash the run.
        pass


def record_wallclock(
    name: str,
    scale: str,
    elapsed: float,
    path: Optional[Path] = None,
) -> dict:
    """Record one experiment's wall-clock; returns the updated entry."""
    data = load(path)
    experiments: Dict[str, dict] = data.setdefault("experiments", {})
    key = f"{name}:{scale}"
    entry = experiments.setdefault(key, {})
    entry.setdefault("before", round(elapsed, 4))
    entry["after"] = round(elapsed, 4)
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"], 2)
    _save(data, path)
    return entry


def record_shard_wallclock(
    name: str,
    scale: str,
    sequential: float,
    sharded: float,
    shards: int,
    path: Optional[Path] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Record one sequential-vs-sharded comparison in ``BENCH_shard.json``.

    Unlike :func:`record_wallclock`, *both* numbers come from the same
    run: ``before`` is the sequential wall-clock, ``after`` the
    ``shards``-way sharded wall-clock, so ``speedup`` is the parallel
    speedup (the PR target is >= 2x at 4 shards on the big weak-scaling
    points).
    """
    data = load(path or shard_file())
    experiments: Dict[str, dict] = data.setdefault("experiments", {})
    entry = experiments.setdefault(f"{name}:{scale}", {})
    entry["before"] = round(sequential, 4)
    entry["after"] = round(sharded, 4)
    entry["shards"] = shards
    # Parallel wall-clock speedup is bounded by the host's cores; record
    # them so a pinned number is interpretable on a different machine.
    entry["cores"] = os.cpu_count()
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"], 2)
    if extra:
        entry.update(extra)
    _save(data, path or shard_file())
    return entry


def record_tuned_comparison(
    name: str,
    default_seconds: float,
    tuned_seconds: float,
    chunk_bytes: int,
    table: str,
    path: Optional[Path] = None,
) -> dict:
    """Record one default-vs-tuned simulated-latency pair in the tune ledger.

    Both numbers come from the same ``repro.tune apply`` run: ``before``
    is the static 64 KB-default config, ``after`` the config the attached
    tuning table selected (whose ``chunk_bytes`` and provenance are
    recorded alongside). Simulated seconds, not wall-clock -- re-running
    on a different machine reproduces them exactly.
    """
    data = load(path or tune_file())
    experiments: Dict[str, dict] = data.setdefault("experiments", {})
    entry = experiments.setdefault(name, {})
    entry["before"] = round(default_seconds, 9)
    entry["after"] = round(tuned_seconds, 9)
    entry["chunk_bytes"] = chunk_bytes
    entry["table"] = table
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"], 3)
    _save(data, path or tune_file())
    return entry


def record_backend_comparison(
    name: str,
    default_seconds: float,
    tuned_seconds: float,
    backend: str,
    chunk_bytes: int,
    path: Optional[Path] = None,
) -> dict:
    """Record one default-vs-tuned-chooser pair in ``BENCH_backend.json``.

    Both numbers come from the same conformance run: ``before`` is the
    default config (GPU-pack backend, 64 KB chunks), ``after`` the
    backend + chunk the tuned chooser resolved for the same transfer
    (recorded alongside). Simulated seconds -- rerunning on a different
    machine reproduces them exactly.
    """
    data = load(path or backend_file())
    experiments: Dict[str, dict] = data.setdefault("experiments", {})
    entry = experiments.setdefault(name, {})
    entry["before"] = round(default_seconds, 9)
    entry["after"] = round(tuned_seconds, 9)
    entry["backend"] = backend
    entry["chunk_bytes"] = chunk_bytes
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"], 3)
    _save(data, path or backend_file())
    return entry


def record_coll_comparison(
    name: str,
    naive_seconds: float,
    aware_seconds: float,
    schedule: str,
    messages: int,
    path: Optional[Path] = None,
) -> dict:
    """Record one naive-vs-datatype-aware collective pair in the ledger.

    Both numbers come from the same ``coll`` experiment run: ``before``
    is the pack-then-alltoallv baseline (blocking host pack per block,
    contiguous byte exchange, blocking unpack), ``after`` the
    datatype-aware ``Alltoallv`` over the identical buffers, whose
    schedule (``small`` / ``large``) and peer-message count are recorded
    alongside. Simulated seconds -- rerunning on a different machine
    reproduces them exactly.
    """
    data = load(path or coll_file())
    experiments: Dict[str, dict] = data.setdefault("experiments", {})
    entry = experiments.setdefault(name, {})
    entry["before"] = round(naive_seconds, 9)
    entry["after"] = round(aware_seconds, 9)
    entry["schedule"] = schedule
    entry["messages"] = messages
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"], 3)
    _save(data, path or coll_file())
    return entry
