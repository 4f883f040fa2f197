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
    The interface: a named pair of callback-style methods,
    ``send_chunk`` (device buffer -> send vbuf) and ``drain_chunk``
    (recv vbuf -> device buffer). Each issues its stages on the
    engine's per-chunk op and calls the op back when the vbuf holds the
    chunk or the chunk has landed. The op waits on exactly the events
    the stages return, so a backend adds *no* events of its own and the
    default path stays schedule-identical to the engine code it was
    carved out of. Every backend moves one
    :class:`~repro.core.plan.ChunkPlan` of the transfer's compiled
    plan: it takes its cost from the chunk's segments (or the plan's
    stage durations) and moves the bytes with the chunk's one gather or
    scatter.

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

    The engine's chunk ops (:mod:`repro.core.pipeline`) call
    :meth:`send_chunk` or :meth:`drain_chunk` once per chunk; the backend
    issues its stages for the op and calls the op back when it is done.
    A stage is a ``step(op, event)`` function chained with
    ``op.then(event, step)``; ``op.acquire_vbuf(step)`` and
    ``op.acquire_tbuf(step)`` deliver the buffer as the event value, so
    everything a backend waits on is scheduled exactly as if the engine
    waited on it itself. Every backend receives the chunk as ``op.cp``, a
    :class:`~repro.core.plan.ChunkPlan` of the transfer's compiled plan;
    ``op.transfer`` carries the endpoint, the user buffer, the per-rank
    streams and pools (``res``) and the plan's per-chunk stage durations
    (``costs``, from :meth:`~repro.core.plan.TransferPlan.costs_for`), and
    ``op.state`` is the transaction's SendState or RecvState.
    """

    #: Table/config identifier ("gpu", "host", "nic").
    name: str = "abstract"

    def __init__(self) -> None:
        #: The PERF counter of the chunks this backend moves.
        self.chunk_counter = f"backend_{self.name}_chunks"

    def send_chunk(self, op) -> None:
        """Move chunk ``op.cp`` of the send buffer into a send vbuf.

        Ends by setting ``op.vbuf`` to the vbuf, still held, and calling
        ``op.staged()`` once the vbuf holds the chunk; the op then
        RDMA-writes and releases it.
        """
        raise NotImplementedError

    def drain_chunk(self, op) -> None:
        """Drain recv vbuf ``op.vbuf`` into the chunk of the posted buffer.

        Releases the vbuf with ``op.state.release_staging(cp.index)`` once
        its bytes are consumed and ends with ``op.drained()`` once the
        chunk has landed.
        """
        raise NotImplementedError


def _staged(op, _event) -> None:
    op.staged()


def _consumed(op, _event) -> None:
    """The one drain stage consumed the vbuf and landed the chunk."""
    op.state.release_staging(op.cp.index)
    op.drained()


class HostStagedBackend(TransferBackend):
    """Strided PCIe 2-D copies straight between user buffer and vbuf."""

    name = "host"

    def send_chunk(self, op) -> None:
        op.acquire_vbuf(self._send_copy)

    @staticmethod
    def _send_copy(op, event) -> None:
        t = op.transfer
        cp = op.cp
        op.vbuf = event._value
        op.then(strided_pcie_op(
            t.endpoint, t.res.d2h, CopyKind.D2H, t.buf, cp, op.vbuf,
            f"pcie-strided[{cp.index}]",
        ), _staged)

    def drain_chunk(self, op) -> None:
        t = op.transfer
        cp = op.cp
        op.then(strided_pcie_op(
            t.endpoint, t.res.h2d, CopyKind.H2D, t.buf, cp, op.vbuf,
            f"pcie-strided[{cp.index}]",
        ), _consumed)


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

    def send_chunk(self, op) -> None:
        op.acquire_tbuf(self._send_pack)

    @staticmethod
    def _send_pack(op, event) -> None:
        tbuf = event._value
        if tbuf is None:
            # The recovery layer degraded this chunk to the host-style
            # path when the tbuf pool timed out: strided PCIe 2-D copy
            # straight into the vbuf ("D2H nc2c", one DMA per row).
            BACKENDS["host"].send_chunk(op)
            return
        op.tbuf = tbuf
        t = op.transfer
        cp = op.cp
        op.then(t.res.pack.enqueue(
            t.endpoint.cuda.gpu.exec_engine, t.costs["pack"][cp.index], None,
            label=cp.pack_label,
        ), GpuPipelineBackend._send_packed)

    @staticmethod
    def _send_packed(op, _event) -> None:
        op.acquire_vbuf(GpuPipelineBackend._send_copy)

    @staticmethod
    def _send_copy(op, event) -> None:
        t = op.transfer
        cp = op.cp
        buf = t.buf
        vbuf = op.vbuf = event._value
        op.then(t.res.d2h.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.D2H),
            t.costs["d2h"][cp.index],
            lambda: cp.gather_into(buf, vbuf.view()),
            label=cp.d2h_label,
        ), GpuPipelineBackend._send_copied)

    @staticmethod
    def _send_copied(op, _event) -> None:
        op.transfer.res.tbufs.release(op.tbuf)
        op.staged()

    def drain_chunk(self, op) -> None:
        op.acquire_tbuf(self._drain_copy)

    @staticmethod
    def _drain_copy(op, event) -> None:
        tbuf = event._value
        if tbuf is None:
            # Recovery-layer degradation: scatter straight out of the
            # vbuf over PCIe.
            BACKENDS["host"].drain_chunk(op)
            return
        op.tbuf = tbuf
        t = op.transfer
        cp = op.cp
        buf = t.buf
        vbuf = op.vbuf
        # The scatter into the user buffer is fused into the H2D
        # completion -- it must run before release_staging recycles the
        # vbuf. The unpack op then charges pure device time.
        op.then(t.res.h2d.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.H2D),
            t.costs["h2d"][cp.index],
            lambda: cp.scatter_from(vbuf.view(), buf),
            label=cp.h2d_label,
        ), GpuPipelineBackend._drain_unpack)

    @staticmethod
    def _drain_unpack(op, _event) -> None:
        t = op.transfer
        cp = op.cp
        op.state.release_staging(cp.index)
        op.then(t.res.unpack.enqueue(
            t.endpoint.cuda.gpu.exec_engine, t.costs["pack"][cp.index], None,
            label=cp.unpack_label,
        ), GpuPipelineBackend._drain_unpacked)

    @staticmethod
    def _drain_unpacked(op, _event) -> None:
        op.transfer.res.tbufs.release(op.tbuf)
        op.drained()


class NicOffloadBackend(TransferBackend):
    """HCA-side gather/scatter via per-segment DMA descriptors.

    No pack kernel, no tbuf: the D2H (send) / H2D (drain) engine charges
    :func:`nic_offload_cost` for the chunk's segment list and the bytes
    land directly in the vbuf / user buffer. Two pipeline stages per
    side simply do not exist on this path.
    """

    name = "nic"

    def send_chunk(self, op) -> None:
        PERF.bump("nic_descriptors", op.cp.segs.count)
        op.acquire_vbuf(self._send_copy)

    @staticmethod
    def _send_copy(op, event) -> None:
        t = op.transfer
        cp = op.cp
        buf = t.buf
        vbuf = op.vbuf = event._value
        op.then(t.res.d2h.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.D2H),
            nic_offload_cost(t.endpoint.cfg, cp.segs),
            lambda: cp.gather_into(buf, vbuf.view()),
            label=f"nic-gather[{cp.index}]",
        ), _staged)

    def drain_chunk(self, op) -> None:
        t = op.transfer
        cp = op.cp
        buf = t.buf
        vbuf = op.vbuf
        PERF.bump("nic_descriptors", cp.segs.count)
        op.then(t.res.h2d.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.H2D),
            nic_offload_cost(t.endpoint.cfg, cp.segs),
            lambda: cp.scatter_from(vbuf.view(), buf),
            label=f"nic-scatter[{cp.index}]",
        ), _consumed)


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
