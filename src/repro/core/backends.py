"""Transfer backends: how a device chunk crosses PCIe, as stage descriptions.

The engine of :mod:`repro.core.pipeline` is one chunk pipeline (Section
IV): every device chunk, contiguous or strided, send or drain, walks the
same stages on the same per-chunk op, replaying a
:class:`~repro.core.plan.ChunkPlan` of the transfer's compiled plan.
Non-contiguous data adds a GPU pack and unpack around the PCIe copies;
contiguous data reduces to the three-stage MVAPICH2-GPU pipeline. Di
Girolamo et al. ("Network-Accelerated Non-Contiguous Memory Transfers")
show a third design point -- the NIC gathers the segments itself via
per-segment DMA descriptors, with no staging copies at all -- that
differs from the GPU pipeline only in how the copy stage is done, and
that *which* path wins depends on the layout and message size.

So a backend is a :class:`Stages` description, not code: whether it
packs (a GPU pack or unpack on the exec engine while a device staging
buffer is held), one cost function for its PCIe copy stage, the copy's
trace labels and its chunk counter. Every copy moves the chunk's bytes
with the chunk's one gather or scatter.

``gpu``
    The paper's design: GPU pack kernel into a device tbuf, contiguous
    D2H into the vbuf, replayed from the plan with the two copies fused
    into one gather. A chunk degrades to ``host`` when the armed
    recovery layer times out on the tbuf pool.

``host``
    The pre-offload MVAPICH2 behaviour: a strided PCIe 2-D copy (one
    DMA transaction per row) straight between the user buffer and the
    vbuf.

``nic``
    The HCA gathers/scatters the strided segments itself: one DMA
    descriptor per segment, rung through the descriptor ring in batches.
    No pack kernel, no tbuf; the cost is descriptor processing plus the
    raw PCIe byte time.

:data:`CONTIGUOUS`
    Not a choosable backend: the description every contiguous layout
    walks, one contiguous copy and no pack stage.

A rendezvous out of or into *host* memory walks the same chunk ops over
one of two host-buffer descriptions (:func:`host_stages`), MVAPICH2's
host rendezvous: :data:`ZERO_COPY` for a contiguous datatype, whose
chunks the HCA reads from and writes to the user buffer directly, and
otherwise a CPU pack (send) or unpack (drain) of each chunk on the node
CPU into or out of a vbuf, charged as the MPI library's host pack.

The module also carries the *modeled* per-chunk cost of each backend
(:func:`modeled_chunk_cost`), which charges the same cost functions the
chunk ops charge, and the Hunold/Träff guideline guard
(:func:`guideline_backend`): a non-default backend may only be chosen
when its modeled cost does not exceed the default path's by more than
``GUIDELINE_TOLERANCE`` -- "tuned >= default", asserted mechanically.

NIC constants live here as module constants (not ``HardwareConfig``
fields) so the cluster-config hash -- and therefore the on-disk tuning
table identity -- is unchanged by their introduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..hw.config import CopyKind
from ..perf.stats import PERF
from .gpu_pack import gpu_pack_cost

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.datatype import Datatype, SegmentList

__all__ = [
    "Stages",
    "BACKENDS",
    "BACKEND_NAMES",
    "CONTIGUOUS",
    "DEFAULT_BACKEND",
    "ZERO_COPY",
    "NIC_RING_OVERHEAD",
    "NIC_DESC_COST",
    "NIC_MAX_DESCRIPTORS",
    "GUIDELINE_TOLERANCE",
    "contiguous_copy_cost",
    "host_stages",
    "nic_offload_cost",
    "strided_pcie_cost",
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


def contiguous_copy_cost(cfg, segs: "SegmentList") -> float:
    """Cost of one contiguous PCIe copy of the bytes ``segs`` covers.

    The copy stage of the GPU pipeline (the bytes sit packed in the tbuf)
    and of a contiguous layout. D2H and H2D copies cost the same.
    """
    return cfg.memcpy_time(CopyKind.D2H, segs.total_bytes)


class Stages:
    """A backend, described by the stages its chunks walk.

    The chunk ops of :mod:`repro.core.pipeline` walk these stages for
    every rendezvous chunk:

    * send: (tbuf, pack) -> vbuf -> copy -> (release tbuf) -> RDMA write;
    * drain: (tbuf) -> copy -> release the vbuf -> (unpack, release tbuf).

    The stages in parentheses exist only when the description ``packs``;
    a description without a copy stage (``copy_cost`` None) takes no vbuf
    either: the HCA reads and writes the user buffer itself.
    """

    __slots__ = ("packs", "copy_cost", "labels", "counter", "segment_counter",
                 "host_buffer")

    def __init__(self, packs: bool, copy_cost: Optional[Callable[..., float]],
                 labels: Optional[Tuple[str, str, str]],
                 counter: Optional[str] = None,
                 segment_counter: Optional[str] = None,
                 host_buffer: bool = False):
        #: Whether a GPU kernel on the exec engine packs (send) or unpacks
        #: (drain) the chunk while a device staging buffer (tbuf) is held.
        self.packs = packs
        #: ``copy_cost(cfg, segs)``: duration of the copy stage that moves
        #: the chunk between the user buffer and its vbuf, or None.
        self.copy_cost = copy_cost
        #: Trace label of that copy: send and drain formats of the chunk
        #: index (a host buffer's carry none), and the label of every
        #: eager-delivery copy.
        self.labels = labels
        #: PERF counter of the chunks moved, and of their segments.
        self.counter = counter
        self.segment_counter = segment_counter
        #: A host buffer's description: its copy runs on the node CPU, and
        #: its send moves one chunk at a time at the receiver's chunk size,
        #: each once its predecessor's FIN is posted and its grant is in.
        self.host_buffer = host_buffer

    def count(self, segs: "SegmentList") -> None:
        """Count one chunk of ``segs`` moved under this description."""
        if self.counter is not None:
            PERF.bump(self.counter)
        if self.segment_counter is not None:
            PERF.bump(self.segment_counter, segs.count)


#: The choosable backends, keyed by their table/config name.
BACKENDS: Dict[str, Stages] = {
    "gpu": Stages(True, contiguous_copy_cost,
                  ("d2h[%d]:d2h", "h2d[%d]:h2d", "eager-h2d:h2d"),
                  "backend_gpu_chunks"),
    "host": Stages(False, strided_pcie_cost,
                   ("pcie-strided[%d]", "pcie-strided[%d]", "pcie-strided[0]"),
                   "backend_host_chunks"),
    "nic": Stages(False, nic_offload_cost,
                  ("nic-gather[%d]", "nic-scatter[%d]", "nic-scatter[0]"),
                  "backend_nic_chunks", "nic_descriptors"),
}
BACKEND_NAMES = tuple(sorted(BACKENDS))

#: A contiguous layout: the three-stage pipeline of the earlier
#: MVAPICH2-GPU design, one contiguous copy straight between the user
#: buffer and the vbuf. Not a choosable backend, and not counted.
CONTIGUOUS = Stages(False, contiguous_copy_cost,
                    ("d2h[%d]:d2h", "h2d[%d]:h2d", "eager-h2d:h2d"))

#: A contiguous host buffer: no copy stage, the chunks are windows of the
#: user buffer.
ZERO_COPY = Stages(False, None, None, host_buffer=True)
#: Any other host buffer: the CPU pack of a strided layout, or the plain
#: copy of one whose whole layout is one run, whatever its chunk's
#: segments -- the two branches of
#: :func:`repro.mpi.pack.host_pack_range_time`.
_HOST_LABELS = ("pack:rdv", "unpack:rdv", None)
_HOST_PACK = Stages(
    False, lambda cfg, segs: cfg.host_pack_time(segs.count, segs.total_bytes),
    _HOST_LABELS, host_buffer=True)
_HOST_COPY = Stages(
    False, lambda cfg, segs: segs.total_bytes / cfg.host_memcpy_bandwidth,
    _HOST_LABELS, host_buffer=True)


def host_stages(dtype: "Datatype", count: int) -> Stages:
    """The description of a host buffer of ``count`` elements of ``dtype``."""
    if dtype.is_contiguous:
        return ZERO_COPY
    if dtype.segments_for_count(count).count <= 1:
        return _HOST_COPY
    return _HOST_PACK


def modeled_chunk_cost(name: str, cfg, dtype: "Datatype", count: int,
                       lo: int, hi: int) -> float:
    """Modeled sender-side cost of one strided chunk under ``name``.

    The figure every chooser decision is audited against: it covers the
    chunk's path from device memory into the send vbuf (the stages that
    differ between backends), not the wire or the receiver. It charges
    the cost functions the chunk ops charge: the pack, when the backend
    packs, plus its copy. Pure function of the hardware config and the
    layout -- no simulation.
    """
    stages = BACKENDS.get(name)
    if stages is None:
        raise ValueError(f"unknown backend {name!r} (expected {BACKEND_NAMES})")
    segs = dtype.segments_for_range(count, lo, hi)
    if stages.packs:
        return gpu_pack_cost(cfg, segs) + stages.copy_cost(cfg, segs)
    return stages.copy_cost(cfg, segs)


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
