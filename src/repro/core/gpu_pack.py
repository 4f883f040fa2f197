"""Device time of a datatype pack/unpack offloaded to the GPU (Section IV-A).

The one pack-cost formula of the simulator. A pack flattens a segment list
of a (possibly non-contiguous) device buffer into a contiguous device
chunk; an unpack scatters it back, at the same cost:

* when the segments form a **uniform** strided pattern -- the vector
  datatypes the paper evaluates -- the operation is exactly one
  ``cudaMemcpy2DAsync`` device-to-device copy and is charged that cost;
* otherwise it is a general gather/scatter **pack kernel**, charged the
  per-segment device kernel cost.

Compiled transfer plans (:meth:`repro.core.plan.TransferPlan.costs_for`),
the chooser's cost model (:func:`repro.core.backends.modeled_chunk_cost`)
and ``Comm.Pack``/``Unpack`` all charge this function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw.config import CopyKind

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.config import HardwareConfig
    from ..mpi.datatype import SegmentList

__all__ = ["gpu_pack_cost"]


def gpu_pack_cost(cfg: "HardwareConfig", segs: "SegmentList") -> float:
    """Device time to pack or unpack the bytes ``segs`` covers."""
    uniform = segs.uniform()
    if uniform is not None:
        width, height, pitch = uniform
        return cfg.memcpy2d_time(CopyKind.D2D, width, height, pitch, width)
    return cfg.device_gather_time(segs.count, segs.total_bytes)
