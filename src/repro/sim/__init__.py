"""Minimal deterministic discrete-event simulation kernel.

A from-scratch SimPy-like engine: generator-based processes and callback
ops, an event heap with FIFO tie-breaking (fully deterministic runs),
capacity resources and object stores that grant waiters in place, and
interval tracing. Everything else in :mod:`repro` -- the GPU, the PCIe
bus, the InfiniBand fabric, the MPI library -- is built on these
primitives.
"""

from .core import WIRE_KEY_BASE, EmptySchedule, Environment, wire_key
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    SimulationError,
    Timeout,
)
from .process import CallbackOp, Process, ProcessGenerator, Race, Wakeup, wait
from .resources import Resource, Store, StoreGet
from .trace import FaultRecord, Interval, Tracer, union_duration

__all__ = [
    "Environment",
    "EmptySchedule",
    "WIRE_KEY_BASE",
    "wire_key",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "CallbackOp",
    "Process",
    "ProcessGenerator",
    "Race",
    "Wakeup",
    "wait",
    "Resource",
    "Store",
    "StoreGet",
    "Tracer",
    "Interval",
    "FaultRecord",
    "union_duration",
]
