"""Transfer backends: the pluggable strided-chunk movers behind the engine.

The engine of :mod:`repro.core.pipeline` historically hard-coded two ways
of moving a *strided* chunk between device memory and the host vbuf: the
paper's 5-stage GPU-pack pipeline and the strided-PCIe host fallback.
Di Girolamo et al. ("Network-Accelerated Non-Contiguous Memory
Transfers") show a third design point -- the NIC gathers the segments
itself via per-segment DMA descriptors, with no staging copies at all --
and, more importantly, that *which* path wins depends on the layout and
message size. This module makes the path a first-class, tunable choice:

``TransferBackend``
    The interface: a named pair of generator methods, ``send_chunk``
    (device buffer -> send vbuf) and ``drain_chunk`` (recv vbuf ->
    device buffer), each yielding simulation events exactly like the
    engine code they were carved out of. The engine delegates with
    ``yield from``, so a backend adds *no* events of its own and the
    default path stays schedule-identical to the pre-backend engine.
    Every backend moves one :class:`~repro.core.plan.ChunkPlan` of the
    transfer's compiled plan: it takes its cost from the chunk's
    segments (or the plan's stage durations) and moves the bytes with
    the chunk's one gather or scatter.

``GpuPipelineBackend``
    The paper's design: GPU pack kernel into a device tbuf, contiguous
    D2H into the vbuf, replayed from the plan with the two copies fused
    into one gather. Degrades to the host backend when the tbuf pool
    times out.

``HostStagedBackend``
    The pre-offload MVAPICH2 behaviour: a strided PCIe 2-D copy (one
    DMA transaction per row) straight between the user buffer and the
    vbuf.

``NicOffloadBackend``
    The HCA gathers/scatters the strided segments itself: one DMA
    descriptor per segment, rung through the descriptor ring in batches.
    No pack kernel, no tbuf -- the chunk's segments land directly in the
    vbuf (send) or the user buffer (drain), so the two device-side
    pipeline stages disappear and the cost is descriptor processing plus
    the raw PCIe byte time.

The module also carries the *modeled* per-chunk cost of each backend
(:func:`modeled_chunk_cost`) and the Hunold/Träff guideline guard
(:func:`guideline_backend`): a non-default backend may only be chosen
when its modeled cost does not exceed the default path's by more than
``GUIDELINE_TOLERANCE`` -- "tuned >= default", asserted mechanically.

NIC constants live here as module constants (not ``HardwareConfig``
fields) so the cluster-config hash -- and therefore the on-disk tuning
table identity -- is unchanged by their introduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..hw.config import CopyKind
from ..perf.stats import PERF
from .gpu_pack import gpu_pack_cost

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.datatype import Datatype, SegmentList

__all__ = [
    "TransferBackend",
    "GpuPipelineBackend",
    "HostStagedBackend",
    "NicOffloadBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "NIC_RING_OVERHEAD",
    "NIC_DESC_COST",
    "NIC_MAX_DESCRIPTORS",
    "GUIDELINE_TOLERANCE",
    "nic_offload_cost",
    "strided_pcie_cost",
    "strided_pcie_op",
    "modeled_chunk_cost",
    "guideline_backend",
]

#: Cost of ringing the HCA doorbell and draining one descriptor batch
#: through the ring (per batch of ``NIC_MAX_DESCRIPTORS``).
NIC_RING_OVERHEAD = 1.2e-6
#: Per-segment DMA descriptor processing time at the HCA (fetch, address
#: translation, completion). The dominant term for fine-grained layouts.
NIC_DESC_COST = 0.12e-6
#: Descriptor-ring capacity: segments are posted in batches of this many.
NIC_MAX_DESCRIPTORS = 256

#: Hunold/Träff slack: a non-default backend is eligible only while its
#: modeled cost stays within (1 + tolerance) of the default path's.
GUIDELINE_TOLERANCE = 0.10

#: The engine's historical path -- what ``backend="auto"`` resolves to
#: when no table entry says otherwise.
DEFAULT_BACKEND = "gpu"


def nic_offload_cost(cfg, segs: "SegmentList") -> float:
    """Modeled time for the HCA to gather/scatter ``segs`` over PCIe.

    One DMA descriptor per segment, posted in ring batches, plus the raw
    byte time at PCIe bandwidth. There is no pack kernel and no staging
    copy, so for wide segments this beats the 5-stage pipeline; for
    thousands of tiny segments the descriptor term dominates and loses
    badly -- exactly the crossover the chooser has to learn.
    """
    nseg = segs.count
    if nseg == 0:
        return cfg.pcie_copy_overhead
    batches = (nseg + NIC_MAX_DESCRIPTORS - 1) // NIC_MAX_DESCRIPTORS
    return (
        NIC_RING_OVERHEAD * batches
        + nseg * NIC_DESC_COST
        + segs.total_bytes / cfg.pcie_bandwidth
    )


def strided_pcie_cost(cfg, segs: "SegmentList") -> float:
    """Cost of moving an arbitrary segment list across PCIe directly.

    Uniform layouts use the exact 2-D law; irregular ones approximate the
    per-row DMA behaviour with the average spacing as the pitch.
    """
    uniform = segs.uniform()
    if uniform is not None:
        width, height, pitch = uniform
        return cfg.memcpy2d_time(CopyKind.D2H, width, height, pitch, width)
    nbytes = segs.total_bytes
    if segs.count <= 1:
        return cfg.memcpy_time(CopyKind.D2H, nbytes)
    lo, hi = segs.span()
    pitch_est = (hi - lo) // max(segs.count - 1, 1)
    return (
        cfg.pcie_copy_overhead
        + segs.count * (cfg.pcie_row_cost_nc2c + pitch_est * cfg.pcie_row_pitch_surcharge)
        + nbytes / cfg.pcie_bandwidth
    )


def strided_pcie_op(endpoint, stream, kind, user_buf, cp, staging, label):
    """Enqueue chunk ``cp`` straight across PCIe, no offload ("nc2c").

    D2H gathers the chunk's segments of ``user_buf`` into ``staging``;
    H2D scatters ``staging`` into them. Returns the completion event.
    """
    if kind is CopyKind.D2H:
        def apply():
            cp.gather_into(user_buf, staging.view())
    else:
        def apply():
            cp.scatter_from(staging.view(), user_buf)
    return stream.enqueue(
        endpoint.cuda.gpu.engine_for(kind),
        strided_pcie_cost(endpoint.cfg, cp.segs), apply, label=label,
    )


class TransferBackend:
    """One way of moving a strided chunk between device memory and a vbuf.

    Subclasses implement the two generator methods; the engine invokes
    them with ``yield from`` inside its per-chunk simulation processes,
    so everything a backend yields is scheduled exactly as if it were
    written inline in the engine. Every backend receives the chunk as a
    :class:`~repro.core.plan.ChunkPlan` of the transfer's compiled plan,
    plus that plan's per-chunk stage durations (``costs``, from
    :meth:`~repro.core.plan.TransferPlan.costs_for`).
    """

    #: Table/config identifier ("gpu", "host", "nic").
    name: str = "abstract"

    def send_chunk(self, engine, endpoint, res, buf, cp, costs):
        """Move chunk ``cp`` of the send buffer into a vbuf.

        A generator: yields simulation events, returns the acquired send
        vbuf (still held -- the caller RDMA-writes and releases it).
        """
        raise NotImplementedError

    def drain_chunk(self, engine, state, res, req, cp, vbuf, costs):
        """Drain recv vbuf chunk ``cp`` into the posted receive buffer.

        A generator: yields simulation events and must call
        ``state.release_staging(cp.index)`` once the vbuf's bytes are
        consumed.
        """
        raise NotImplementedError


class HostStagedBackend(TransferBackend):
    """Strided PCIe 2-D copies straight between user buffer and vbuf."""

    name = "host"

    def send_chunk(self, engine, endpoint, res, buf, cp, costs):
        from ..mpi import protocol as _proto

        vbuf = yield from _proto.acquire_vbuf(endpoint, endpoint.send_vbufs)
        yield strided_pcie_op(
            endpoint, res.d2h, CopyKind.D2H, buf, cp, vbuf,
            f"pcie-strided[{cp.index}]",
        )
        return vbuf

    def drain_chunk(self, engine, state, res, req, cp, vbuf, costs):
        yield strided_pcie_op(
            state.endpoint, res.h2d, CopyKind.H2D, req.buf, cp, vbuf,
            f"pcie-strided[{cp.index}]",
        )
        state.release_staging(cp.index)


class GpuPipelineBackend(TransferBackend):
    """The paper's 5-stage pipeline: GPU pack -> tbuf -> contiguous D2H.

    Replays the chunk's plan: the tbuf is the device-side flow-control
    token (acquired and released at the pipeline's stage boundaries),
    while the bytes move once, gathered straight into the vbuf at D2H
    completion (scattered straight out of it at H2D completion on the
    receiver). Degrades to the host backend when the recovery layer
    times out on the tbuf pool.
    """

    name = "gpu"

    def send_chunk(self, engine, endpoint, res, buf, cp, costs):
        from ..mpi import protocol as _proto

        tbuf = yield from engine._acquire_tbuf(endpoint, res)
        if tbuf is None:
            # The recovery layer degraded this chunk to the host-style
            # path when the tbuf pool timed out: strided PCIe 2-D copy
            # straight into the vbuf ("D2H nc2c", one DMA per row).
            vbuf = yield from BACKENDS["host"].send_chunk(
                engine, endpoint, res, buf, cp, costs
            )
            return vbuf
        i = cp.index
        yield res.pack.enqueue(
            endpoint.cuda.gpu.exec_engine, costs["pack"][i], None,
            label=cp.pack_label,
        )
        vbuf = yield from _proto.acquire_vbuf(endpoint, endpoint.send_vbufs)
        yield res.d2h.enqueue(
            endpoint.cuda.gpu.engine_for(CopyKind.D2H), costs["d2h"][i],
            lambda: cp.gather_into(buf, vbuf.view()),
            label=cp.d2h_label,
        )
        res.tbufs.release(tbuf)
        return vbuf

    def drain_chunk(self, engine, state, res, req, cp, vbuf, costs):
        endpoint = state.endpoint
        tbuf = yield from engine._acquire_tbuf(endpoint, res)
        if tbuf is None:
            # Recovery-layer degradation: scatter straight out of the
            # vbuf over PCIe.
            yield from BACKENDS["host"].drain_chunk(
                engine, state, res, req, cp, vbuf, costs
            )
            return
        # The scatter into the user buffer is fused into the H2D
        # completion -- it must run before release_staging recycles the
        # vbuf. The unpack op then charges pure device time.
        i = cp.index
        yield res.h2d.enqueue(
            endpoint.cuda.gpu.engine_for(CopyKind.H2D), costs["h2d"][i],
            lambda: cp.scatter_from(vbuf.view(), req.buf),
            label=cp.h2d_label,
        )
        state.release_staging(i)
        yield res.unpack.enqueue(
            endpoint.cuda.gpu.exec_engine, costs["pack"][i], None,
            label=cp.unpack_label,
        )
        res.tbufs.release(tbuf)


class NicOffloadBackend(TransferBackend):
    """HCA-side gather/scatter via per-segment DMA descriptors.

    No pack kernel, no tbuf: the D2H (send) / H2D (drain) engine charges
    :func:`nic_offload_cost` for the chunk's segment list and the bytes
    land directly in the vbuf / user buffer. Two pipeline stages per
    side simply do not exist on this path.
    """

    name = "nic"

    def send_chunk(self, engine, endpoint, res, buf, cp, costs):
        from ..mpi import protocol as _proto

        PERF.bump("nic_descriptors", cp.segs.count)
        vbuf = yield from _proto.acquire_vbuf(endpoint, endpoint.send_vbufs)
        yield res.d2h.enqueue(
            endpoint.cuda.gpu.engine_for(CopyKind.D2H),
            nic_offload_cost(endpoint.cfg, cp.segs),
            lambda: cp.gather_into(buf, vbuf.view()),
            label=f"nic-gather[{cp.index}]",
        )
        return vbuf

    def drain_chunk(self, engine, state, res, req, cp, vbuf, costs):
        endpoint = state.endpoint
        PERF.bump("nic_descriptors", cp.segs.count)
        yield res.h2d.enqueue(
            endpoint.cuda.gpu.engine_for(CopyKind.H2D),
            nic_offload_cost(endpoint.cfg, cp.segs),
            lambda: cp.scatter_from(vbuf.view(), req.buf),
            label=f"nic-scatter[{cp.index}]",
        )
        state.release_staging(cp.index)


#: Singleton registry, keyed by backend name. Backends are stateless:
#: all per-transfer state flows through the method arguments.
BACKENDS: Dict[str, TransferBackend] = {
    b.name: b for b in (GpuPipelineBackend(), HostStagedBackend(),
                        NicOffloadBackend())
}
BACKEND_NAMES = tuple(sorted(BACKENDS))


def modeled_chunk_cost(name: str, cfg, dtype: "Datatype", count: int,
                       lo: int, hi: int) -> float:
    """Modeled sender-side cost of one strided chunk under ``name``.

    The figure every chooser decision is audited against: it covers the
    chunk's path from device memory into the send vbuf (the stages that
    differ between backends), not the wire or the receiver. Pure
    function of the hardware config and the layout -- no simulation.
    """
    segs = dtype.segments_for_range(count, lo, hi)
    if name == "host":
        return strided_pcie_cost(cfg, segs)
    if name == "nic":
        return nic_offload_cost(cfg, segs)
    if name == "gpu":
        return (gpu_pack_cost(cfg, segs)
                + cfg.memcpy_time(CopyKind.D2H, segs.total_bytes))
    raise ValueError(f"unknown backend {name!r} (expected {BACKEND_NAMES})")


def guideline_backend(
    cfg,
    dtype: "Datatype",
    count: int,
    chunk_bytes: int,
    measured: Dict[str, float],
    tolerance: float = GUIDELINE_TOLERANCE,
) -> str:
    """Pick the best measured backend that the guideline allows.

    ``measured`` maps backend name -> measured latency (simulated
    seconds). The Hunold/Träff guard: a non-default backend is eligible
    only if its *modeled* chunk cost does not exceed the default path's
    modeled cost by more than ``tolerance`` -- the chooser must never
    trade a mechanical guarantee for a lucky measurement. The default
    backend is always eligible; ties go to it. Each excluded candidate
    bumps ``tune_backend_guard``.
    """
    total = dtype.size * count
    hi = min(chunk_bytes, total) if total else chunk_bytes
    base = modeled_chunk_cost(DEFAULT_BACKEND, cfg, dtype, count, 0, max(hi, 1))
    best = DEFAULT_BACKEND
    best_lat = measured[DEFAULT_BACKEND]
    for name in sorted(measured):
        if name == DEFAULT_BACKEND:
            continue
        modeled = modeled_chunk_cost(name, cfg, dtype, count, 0, max(hi, 1))
        if modeled > base * (1.0 + tolerance):
            PERF.bump("tune_backend_guard")
            continue
        if measured[name] < best_lat:
            best, best_lat = name, measured[name]
    return best
