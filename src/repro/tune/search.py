"""Deterministic offline search over :class:`GpuNcConfig` knobs.

The tuner the paper's "administrator tuned 64 KB once per cluster" implies
but never describes: sweep the two knobs the engine applies per transfer
-- ``chunk_bytes`` and the transfer ``backend`` -- over simulated
Figure-5-style transfers and persist the winner per
``(layout signature, message-size bucket)`` into a
:class:`~repro.tune.table.TuningTable`.

Search = grid + successive halving. Rung 0 evaluates every candidate at a
single iteration; the top half (by the deterministic rank below) advances
to the full-budget rung, where the winner is picked. The default config is
force-included in both rungs so every entry carries an apples-to-apples
``default_latency`` and the tuned choice can never be worse than the
default on the search workload (Hunold-style self-consistency: tuned <=
default, asserted by the CI smoke job).

Determinism is the design center, not an afterthought:

* the simulator itself is deterministic, and every trial seeds NumPy's
  global RNG from an FNV-1a hash of its (workload, candidate, budget) key
  -- the same scheme as :mod:`repro.bench.parallel`;
* trials fan across a process pool but results are consumed in submission
  order, so ``jobs=N`` output is byte-for-byte the serial output;
* ties in the rank break toward the *default* chunk size and backend
  (then toward smaller knobs), never toward dict order or float noise.

Same seed + same cluster config therefore yields a byte-identical table
JSON, across runs, across ``jobs`` and across ``shards`` (the sharded
engine is trace-bit-identical by construction).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import GpuNcConfig
from ..hw import KiB, HardwareConfig
from ..perf.stats import PERF
from .signature import size_bucket
from .table import TuningEntry, TuningTable, cluster_config_hash

__all__ = ["Candidate", "SearchSpace", "run_search", "trial_latency"]


def _fnv(text: str) -> int:
    """FNV-1a, the per-trial seed scheme shared with the bench harness."""
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def _l2(n: int) -> int:
    return int(n).bit_length()


@dataclass(frozen=True, order=True)
class Candidate:
    """One point of the knob grid (hashable, picklable, ordered)."""

    chunk_bytes: int
    backend: str = "gpu"

    def to_config(self) -> GpuNcConfig:
        return GpuNcConfig(chunk_bytes=self.chunk_bytes, backend=self.backend)

    @classmethod
    def default(cls) -> "Candidate":
        return cls(GpuNcConfig().chunk_bytes, "gpu")


@dataclass(frozen=True)
class SearchSpace:
    """The knob grid; every axis is an explicit tuple of values."""

    chunk_bytes: Tuple[int, ...] = (
        8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB,
    )
    backend: Tuple[str, ...] = ("gpu",)

    @classmethod
    def smoke(cls) -> "SearchSpace":
        """Tiny 2-chunk-value space for the CI ``tune-smoke`` job."""
        return cls(chunk_bytes=(16 * KiB, 64 * KiB))

    def candidates(self) -> List[Candidate]:
        """The sorted grid with the default force-included."""
        grid = {
            Candidate(c, b) for c, b in product(self.chunk_bytes, self.backend)
        }
        grid.add(Candidate.default())
        return sorted(grid)


def _rank(cand: Candidate, latency: float,
          default: Candidate) -> tuple:
    """Total order on trial outcomes: latency, then closeness to default.

    Ties (common: every chunk size at or above the message size moves it
    as one chunk) resolve toward the default chunk size and backend, then
    toward the smaller candidate, never toward float noise or iteration
    order.
    """
    return (
        latency,
        abs(_l2(cand.chunk_bytes) - _l2(default.chunk_bytes)),
        cand.backend != default.backend,
        cand,
    )


def trial_latency(message_bytes: int, candidate: Candidate,
                  cfg: Optional[HardwareConfig] = None,
                  iterations: int = 1, verify: bool = False,
                  shards: int = 1, elem_bytes: int = 4) -> float:
    """One trial: median simulated latency of the Figure-5 vector workload.

    Seeds NumPy's global RNG from the trial key first, so any randomness a
    workload might pick up is a function of the trial alone.
    """
    from ..bench.vector_latency import mv2_gpu_nc_latency

    np.random.seed(_fnv(
        f"tune:{message_bytes}:{candidate}:{iterations}:{shards}"
    ))
    return mv2_gpu_nc_latency(
        message_bytes, elem_bytes=elem_bytes, cfg=cfg,
        gpu_config=candidate.to_config(), iterations=iterations,
        verify=verify, shards=shards,
    )


def _trial_spec_worker(spec: tuple) -> float:
    """Top-level pool target (must be picklable by spec)."""
    message_bytes, candidate, cfg, iterations, verify, shards, elem = spec
    return trial_latency(message_bytes, candidate, cfg=cfg,
                         iterations=iterations, verify=verify, shards=shards,
                         elem_bytes=elem)


def _run_trials(specs: Sequence[tuple], jobs: Optional[int]) -> List[float]:
    """Evaluate trials, optionally across a pool, in submission order."""
    for _ in specs:
        PERF.bump("tune_trial")
    if jobs is None or jobs <= 1 or len(specs) <= 1:
        return [_trial_spec_worker(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = [pool.submit(_trial_spec_worker, spec) for spec in specs]
        return [f.result() for f in futures]


def run_search(
    message_sizes: Optional[Sequence[int]] = None,
    cfg: Optional[HardwareConfig] = None,
    space: Optional[SearchSpace] = None,
    iterations: int = 2,
    jobs: Optional[int] = None,
    shards: int = 1,
    verify: bool = False,
    elem_bytes: int = 4,
) -> TuningTable:
    """Search every message-size bucket and return the populated table.

    ``message_sizes`` defaults to the large panel of the quick Figure 5
    sweep (the same sizes ``python -m repro.bench fig5 --scale quick``
    measures), so the tuner and the benchmark can never disagree about
    the workload. The returned table is keyed by the layout signature of
    that workload's datatype and by each size's power-of-two bucket; its
    ``cluster_hash`` matches ``cfg`` (default hardware when None).
    """
    from ..bench.experiments import _sizes
    from ..mpi import BYTE, Datatype

    if message_sizes is None:
        message_sizes = _sizes("quick")[1]
    message_sizes = sorted(set(int(s) for s in message_sizes))
    space = space or SearchSpace()
    default = Candidate.default()
    candidates = space.candidates()
    hw = cfg if cfg is not None else HardwareConfig.fermi_qdr()

    rung0 = 1
    # -- rung 0: every (size, candidate) at the cheap budget ---------------
    specs = [
        (size, cand, cfg, rung0, verify, shards, elem_bytes)
        for size in message_sizes for cand in candidates
    ]
    lat0 = _run_trials(specs, jobs)
    by_size: Dict[int, List[Tuple[Candidate, float]]] = {
        size: [] for size in message_sizes
    }
    for (size, cand, *_rest), latency in zip(specs, lat0):
        by_size[size].append((cand, latency))

    # -- halve: top half per size advances; the default always does --------
    survivors: Dict[int, List[Candidate]] = {}
    for size, outcomes in by_size.items():
        outcomes.sort(key=lambda cl: _rank(cl[0], cl[1], default))
        keep = max(2, (len(outcomes) + 1) // 2)
        kept = [cand for cand, _ in outcomes[:keep]]
        if default not in kept:
            kept.append(default)
        survivors[size] = sorted(kept)

    # -- final rung: survivors at the full budget ---------------------------
    if iterations > rung0:
        specs = [
            (size, cand, cfg, iterations, verify, shards, elem_bytes)
            for size in message_sizes for cand in survivors[size]
        ]
        lat1 = _run_trials(specs, jobs)
        finals: Dict[int, List[Tuple[Candidate, float]]] = {
            size: [] for size in message_sizes
        }
        for (size, cand, *_rest), latency in zip(specs, lat1):
            finals[size].append((cand, latency))
    else:
        finals = {
            size: [cl for cl in by_size[size] if cl[0] in survivors[size]]
            for size in message_sizes
        }

    # -- build the table ----------------------------------------------------
    table = TuningTable(
        cluster_config_hash(hw),
        meta={
            "workload": "fig5-vector",
            "elem_bytes": elem_bytes,
            "message_sizes": list(message_sizes),
            "iterations": iterations,
            # NB: jobs and shards are deliberately NOT recorded -- they are
            # execution details that must not change the table bytes.
            "space": asdict(space),
        },
    )
    for size in message_sizes:
        outcomes = sorted(
            finals[size], key=lambda cl: _rank(cl[0], cl[1], default)
        )
        winner, win_latency = outcomes[0]
        default_latency = next(
            latency for cand, latency in outcomes if cand == default
        )
        rows = size // elem_bytes
        vec = Datatype.hvector(rows, elem_bytes, 2 * elem_bytes, BYTE).commit()
        if winner.backend != default.backend:
            # Hunold/Träff guard: a non-default backend may only win its
            # bucket while its modeled cost stays within tolerance of the
            # default path's. Best measured latency per backend feeds the
            # guard; a vetoed winner falls back to the best allowed one.
            from ..core.backends import guideline_backend

            measured: Dict[str, float] = {}
            for cand, latency in outcomes:
                measured.setdefault(cand.backend, latency)
            allowed = guideline_backend(
                hw, vec, 1, winner.chunk_bytes, measured
            )
            if winner.backend != allowed:
                winner, win_latency = next(
                    cl for cl in outcomes if cl[0].backend == allowed
                )
        table.set(
            vec.layout_signature(1),
            size_bucket(size),
            # The engine applies only chunk_bytes and backend; the other
            # three knobs keep the values every committed table holds.
            TuningEntry(
                chunk_bytes=winner.chunk_bytes,
                pipeline_threshold=winner.chunk_bytes, tbuf_chunks=64,
                use_plans=True,
                latency=win_latency,
                default_latency=default_latency,
                backend=winner.backend,
            ),
        )
    return table
