"""MV2-GPU-NC: the paper's contribution.

GPU-aware non-contiguous MPI datatype communication: device-buffer
detection, datatype pack/unpack offloaded to the GPU, and the chunked
five-stage pipeline (D2D pack -> D2H -> RDMA -> H2D -> D2D unpack).
"""

from .backends import (
    BACKENDS,
    Stages,
    guideline_backend,
    modeled_chunk_cost,
    nic_offload_cost,
)
from .config import GpuNcConfig, RecoveryConfig
from .detect import buffer_location, is_device_ptr, is_host_ptr
from .gpu_pack import gpu_pack_cost
from .pipeline import GpuNcEngine

__all__ = [
    "GpuNcConfig",
    "RecoveryConfig",
    "GpuNcEngine",
    "Stages",
    "BACKENDS",
    "guideline_backend",
    "modeled_chunk_cost",
    "nic_offload_cost",
    "is_device_ptr",
    "is_host_ptr",
    "buffer_location",
    "gpu_pack_cost",
]
