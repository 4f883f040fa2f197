"""A from-scratch MPI library over the simulated cluster.

Provides datatypes, point-to-point communication with eager/rendezvous
protocols, non-blocking requests, collectives and the world launcher. GPU
buffers are handled transparently by :mod:`repro.core` (installed on every
endpoint by the world).
"""

import numpy as _np

from .comm import CartComm, Comm
from .datatype import Datatype, DatatypeError, SegmentList
from .endpoint import Endpoint, EndpointStats, StagingPool
from .request import Request, test_all, wait_all, wait_any
from .status import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED, MpiError, Status
from .world import MpiWorld, RankContext, run_world

#: Ready-made committed primitive datatypes (the usual MPI names).
BYTE = Datatype.named(_np.uint8, "BYTE")
CHAR = Datatype.named(_np.int8, "CHAR")
SHORT = Datatype.named(_np.int16, "SHORT")
INT = Datatype.named(_np.int32, "INT")
LONG = Datatype.named(_np.int64, "LONG")
FLOAT = Datatype.named(_np.float32, "FLOAT")
DOUBLE = Datatype.named(_np.float64, "DOUBLE")
COMPLEX = Datatype.named(_np.complex64, "COMPLEX")
DOUBLE_COMPLEX = Datatype.named(_np.complex128, "DOUBLE_COMPLEX")

__all__ = [
    "Comm",
    "CartComm",
    "PROC_NULL",
    "UNDEFINED",
    "Datatype",
    "DatatypeError",
    "SegmentList",
    "Endpoint",
    "EndpointStats",
    "StagingPool",
    "Request",
    "wait_all",
    "wait_any",
    "test_all",
    "Status",
    "MpiError",
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiWorld",
    "RankContext",
    "run_world",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "COMPLEX",
    "DOUBLE_COMPLEX",
]
