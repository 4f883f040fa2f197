"""Tunables of the MV2-GPU-NC transfer engine.

The paper exposes the pipeline block size as a library parameter tuned once
per cluster by the administrator (64 KB was optimal on their testbed; our
chunk-size ablation benchmark reproduces that sweep). Everything else here
is pool sizing and the backend choice used by the benchmarks and
ablations. Every device chunk moves through a compiled
:class:`~repro.core.plan.TransferPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["GpuNcConfig", "RecoveryConfig"]


def _checked_replace(cfg, kwargs):
    """``dataclasses.replace`` with a clear error on unknown option names."""
    valid = {f.name for f in fields(cfg)}
    unknown = sorted(set(kwargs) - valid)
    if unknown:
        raise ValueError(
            f"unknown {type(cfg).__name__} option(s) {unknown}; "
            f"valid options: {sorted(valid)}"
        )
    return replace(cfg, **kwargs)


@dataclass(frozen=True)
class GpuNcConfig:
    """Configuration of the GPU-aware non-contiguous transfer engine."""

    #: Pipeline chunk ("block") size in bytes. The paper's tuned value.
    chunk_bytes: int = 64 * 1024
    #: Device staging (tbuf) chunks available per endpoint.
    tbuf_chunks: int = 64
    #: Which transfer backend moves strided chunks: ``"auto"`` (default)
    #: follows the tuning table when one is attached and otherwise uses
    #: the GPU-pack pipeline (exactly the historical engine); ``"gpu"``,
    #: ``"host"`` and ``"nic"`` force one
    #: :class:`~repro.core.backends.Stages` description for every strided
    #: transfer (ablations and the conformance sweep). ``"host"`` is the
    #: no-offload ablation: strided data is pulled straight over PCIe
    #: with per-row DMA (the "D2H nc2c" scheme).
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.tbuf_chunks < 1:
            raise ValueError("tbuf_chunks must be >= 1")
        if self.backend not in ("auto", "gpu", "host", "nic"):
            raise ValueError(
                f"backend must be one of 'auto', 'gpu', 'host', 'nic'; "
                f"got {self.backend!r}"
            )

    def with_overrides(self, **kwargs) -> "GpuNcConfig":
        return _checked_replace(self, kwargs)


@dataclass(frozen=True)
class RecoveryConfig:
    """Timeout/retry policy of the rendezvous recovery layer.

    Arming recovery (``MpiWorld(recovery=RecoveryConfig())``, automatic
    when the cluster carries a :class:`~repro.ib.faults.FaultPlan`) wakes
    three state machines documented in DESIGN.md: per-chunk RDMA retry with
    capped exponential backoff, sender RTS re-post until the first CTS, and
    a receiver watchdog that re-grants landing windows and NACKs missing
    FINs. All values are simulated seconds. Defaults are generous multiples
    of the healthy-path latencies of the paper's 64 KiB GPU-offload chunks,
    so a fault-free armed run of those takes no recovery action (the
    trace-equality tests pin this). The watchdog counts progress only in
    FINs, grants and drains, though: a slower chunk (the host or NIC
    backend's strided copies) draws spurious re-grants and NACKs after one
    ``watchdog_interval`` without a FIN, and a chunk slower than
    ``watchdog_max_idle + 1`` intervals fails a healthy receive.
    """

    #: RDMA local-completion timeout before a chunk is retransmitted.
    rdma_timeout: float = 300e-6
    #: Attempts (RDMA retransmits, RTS re-posts, vbuf waits) before the
    #: transaction is failed loudly instead of retried.
    max_attempts: int = 6
    #: First retry backoff; doubles per attempt up to :attr:`backoff_cap`.
    backoff_base: float = 25e-6
    backoff_cap: float = 400e-6
    #: Sender-side wait for the first CTS before re-posting the RTS.
    rts_timeout: float = 500e-6
    #: Receiver watchdog probe period; it acts only after a full period
    #: with no FIN/grant/drain progress.
    watchdog_interval: float = 800e-6
    #: Progress-free watchdog periods tolerated before declaring the
    #: transaction dead.
    watchdog_max_idle: int = 8
    #: Device-staging (tbuf) acquisition wait before a chunk degrades from
    #: the GPU-offload path to the host-style strided-PCIe path; also the
    #: base wait of the bounded vbuf-acquisition retry.
    staging_timeout: float = 200e-6

    def __post_init__(self) -> None:
        for name in ("rdma_timeout", "backoff_base", "backoff_cap",
                     "rts_timeout", "watchdog_interval", "staging_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_attempts < 1 or self.watchdog_max_idle < 1:
            raise ValueError("max_attempts and watchdog_max_idle must be >= 1")

    def with_overrides(self, **kwargs) -> "RecoveryConfig":
        return _checked_replace(self, kwargs)
