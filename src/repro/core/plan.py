"""Compiled transfer plans: the one way a device chunk moves.

Every device transfer -- rendezvous send or receive, eager delivery into
device memory, contiguous or strided, whatever its backend -- walks the
same per-chunk structure: byte range, segment slice and stage labels. A
:class:`TransferPlan` compiles that structure **once** per ``(layout,
count, extent, chunk size, byte length)`` and is cached in the layout's
canonical registry entry (see
:meth:`~repro.mpi.datatype.Datatype.plan_for`), so a steady stream of
same-shaped messages replays flat, preresolved chunk records. The byte
length defaults to the whole footprint ``size * count``; a shorter one
compiles a *prefix* plan for a partial-size receive, whose bytes fill the
receive type map from its start as MPI requires.

Stage durations are per-chunk functions of the segments under a hardware
config -- the GPU pack cost and each backend's copy cost -- memoized on
the plan by :meth:`TransferPlan.costs_for`. Each chunk's functional
movement is fused: the pack-to-tbuf and tbuf-to-vbuf (resp. vbuf-to-tbuf
and unpack-from-tbuf) hops of the GPU pipeline are one gather into the
wire staging buffer (resp. one scatter out of it), so each chunk's data
moves once instead of twice. The tbuf is still acquired and released --
it remains the pipeline's device-side flow-control token -- but its bytes
are never written. Every other backend, and a contiguous layout, moves
its bytes with the same gather and scatter. The copies run through the
kernels of :mod:`repro.mpi.pack`; compiling a plan memoizes each strided
chunk's copy geometry up front, and builds the word index of each chunk
that takes the index path (an irregular chunk of short runs), so replay
only copies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mpi.datatype import SegmentList
from ..mpi.pack import gather_into, scatter_from

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.config import HardwareConfig
    from ..hw.memory import BufferPtr
    from ..mpi.datatype import Datatype

__all__ = ["ChunkPlan", "TransferPlan", "layout_kind"]


def layout_kind(dtype: "Datatype", count: int) -> str:
    """``"contig"`` when ``count`` elements of ``dtype`` are at most one
    run of bytes (no pack stage), else ``"strided"``."""
    return "contig" if dtype.segments_for_count(count).count <= 1 else "strided"


class ChunkPlan:
    """Precompiled state of one pipeline chunk.

    The pack and unpack labels are stored exactly as the trace records
    them.
    """

    __slots__ = (
        "index", "lo", "hi", "nbytes", "segs", "pack_label", "unpack_label",
    )

    def __init__(self, index: int, lo: int, hi: int, segs: SegmentList):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.nbytes = hi - lo
        self.segs = segs
        self.pack_label = f"gpu-pack[{lo}:{hi}]"
        self.unpack_label = f"gpu-unpack[{lo}:{hi}]"

    def gather_into(self, src: "BufferPtr", dst_view: np.ndarray) -> None:
        """Gather this chunk's segments of ``src`` into ``dst_view[:n]``.

        The fused pack+stage movement, written straight into the wire
        staging buffer by the one gather kernel.
        """
        gather_into(src, self.segs, dst_view)

    def scatter_from(self, src_view: np.ndarray, dst: "BufferPtr") -> None:
        """Scatter ``src_view[:n]`` into this chunk's segments of ``dst``.

        The fused stage+unpack movement on the receiver.
        """
        scatter_from(src_view, self.segs, dst)


class TransferPlan:
    """The compiled form of one transfer shape.

    Immutable once compiled; safe to share across every message with the
    same ``(layout, count, extent, chunk_bytes, total)`` signature.
    Stage *durations* are not baked in -- datatype objects (and therefore
    plans) are shared across worlds with different hardware
    configurations -- but are memoized per config in :meth:`costs_for`.
    """

    __slots__ = (
        "type_id", "count", "chunk_bytes", "total", "nchunks", "kind",
        "chunks", "_cost_cache", "_last_cfg", "_last_costs",
    )

    def __init__(self, type_id, count, chunk_bytes, total, nchunks, kind,
                 chunks):
        self.type_id = type_id
        self.count = count
        self.chunk_bytes = chunk_bytes
        self.total = total
        self.nchunks = nchunks
        #: :func:`layout_kind` of the whole layout: "contig" (no pack
        #: stage) or "strided".
        self.kind = kind
        self.chunks: Tuple[ChunkPlan, ...] = chunks
        self._cost_cache: Dict["HardwareConfig", dict] = {}
        #: The config :meth:`costs_for` saw last and its stage dict: a run
        #: asks under one config, which hashes slowly (28 fields).
        self._last_cfg: Optional["HardwareConfig"] = None
        self._last_costs: Optional[dict] = None

    @classmethod
    def compile(
        cls,
        dtype: "Datatype",
        count: int,
        chunk_bytes: int,
        nbytes: Optional[int] = None,
    ) -> "TransferPlan":
        """Compile the chunk table for the first ``nbytes`` packed bytes of
        ``count`` elements of ``dtype`` (all of them by default)."""
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        full = dtype.size * count
        total = full if nbytes is None else nbytes
        if not 0 <= total <= full:
            raise ValueError(
                f"plan of {total} bytes outside the {full}-byte footprint of "
                f"{count} x {dtype.name}"
            )
        kind = layout_kind(dtype, count)
        nchunks = max(1, math.ceil(total / chunk_bytes)) if total else 1
        chunks: List[ChunkPlan] = []
        for i in range(nchunks):
            lo = i * chunk_bytes
            hi = min(lo + chunk_bytes, total)
            csegs = dtype.segments_for_range(count, lo, hi)
            if kind == "strided":
                # Choose the chunk's copy, and build the word index of an
                # index-path chunk, now, so replay never pays for either
                # inside a functional apply.
                *_, strides, runs = csegs.word_view()
                if strides is None and runs is None:
                    csegs.word_indices()
            chunks.append(ChunkPlan(i, lo, hi, csegs))
        return cls(
            dtype.type_id, count, chunk_bytes, total, nchunks, kind,
            tuple(chunks),
        )

    def costs_for(self, cfg: "HardwareConfig",
                  stage_cost: Callable[..., float]) -> List[float]:
        """One stage's per-chunk durations under ``cfg``.

        ``stage_cost(cfg, segs)`` of every chunk's segments, indexed by
        chunk: :func:`~repro.core.gpu_pack.gpu_pack_cost` for the pack
        stage, a backend's ``copy_cost`` for its copy stage.
        """
        if cfg is self._last_cfg:
            per_cfg = self._last_costs
        else:
            per_cfg = self._cost_cache.get(cfg)
            if per_cfg is None:
                per_cfg = self._cost_cache[cfg] = {}
            self._last_cfg, self._last_costs = cfg, per_cfg
        costs = per_cfg.get(stage_cost)
        if costs is None:
            costs = per_cfg[stage_cost] = [
                stage_cost(cfg, cp.segs) for cp in self.chunks]
        return costs

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TransferPlan type{self.type_id} x{self.count} "
            f"{self.kind} {self.total}B/{self.nchunks}ch>"
        )
