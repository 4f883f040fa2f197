"""The two BENCH ledgers at the repo root: one schema, one recorder.

Each file is ``{"schema": 1, "experiments": {key: entry}}``, and every
entry pairs a baseline (``before``) with the optimized run (``after``)
measured in the *same* run, plus ``speedup`` and producer fields:

``BENCH_sim.json``
    Simulated seconds, keyed ``<producer>:<layout>:s<bucket>``: ``tune``
    (64 KB default vs the tuned table, ``python -m repro.tune apply``),
    ``conformance`` (default backend vs the tuned chooser) and ``coll``
    (naive pack-then-exchange vs the datatype-aware ``Alltoallv``). They
    are deterministic: a run reproduces every value exactly, or the model
    changed.
``BENCH_shard.json``
    Wall-clock seconds of the ``scale`` experiments: sequential vs
    sharded on the same workload, with the host's ``cores`` beside each
    pair.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["DIR", "load", "record", "recording"]

#: Where the ledgers live: the repo root, three levels above this package.
DIR = Path(__file__).resolve().parents[3]

#: Rounding digits per ledger: (``before``/``after``, ``speedup``).
_DIGITS = {"sim": (9, 3), "shard": (4, 2)}

#: Cleared by :func:`recording` to make every ledger write a no-op.
_RECORDING = True


def _path(ledger: str) -> Path:
    return DIR / f"BENCH_{ledger}.json"


def load(ledger: str) -> dict:
    """Read ``BENCH_<ledger>.json``; empty only when the file is missing.

    A file that does not parse (say, one left with merge-conflict
    markers) raises instead of reading as empty, so a recording run can
    never silently replace every pinned entry.
    """
    try:
        text = _path(ledger).read_text()
    except FileNotFoundError:
        return {"schema": 1, "experiments": {}}
    return json.loads(text)


@contextmanager
def recording(enabled: bool) -> Iterator[None]:
    """Enable or suppress every ledger write in this process for a block.

    :func:`record` still computes and returns its entry; only the file
    write is skipped (``python -m repro.bench --no-record``).
    """
    global _RECORDING
    saved, _RECORDING = _RECORDING, enabled
    try:
        yield
    finally:
        _RECORDING = saved


def record(ledger: str, key: str, before: float, after: float,
           **fields) -> dict:
    """Pin one same-run ``before``/``after`` pair under ``key``.

    The entry replaces any earlier one under the key; ``fields`` are
    stored beside the pair. Returns the entry.
    """
    digits, speedup_digits = _DIGITS[ledger]
    entry = {"before": round(before, digits), "after": round(after, digits),
             **fields}
    if entry["after"] > 0:
        entry["speedup"] = round(entry["before"] / entry["after"],
                                 speedup_digits)
    if not _RECORDING:
        return entry
    data = load(ledger)
    data["experiments"][key] = entry
    try:
        with open(_path(ledger), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError:
        # Benchmarking from a read-only checkout must not crash the run.
        pass
    return entry
