"""Wall-clock spans around the simulator's layer entry points.

The benchmark measures layers from the outside: :class:`SpanRecorder`
replaces each entry point below with a wrapper that times the call with
``perf_counter_ns`` and puts the original back on :meth:`uninstall`. Spans
nest on a stack, so a layer's *self* time is its span minus the spans of
the calls it made into other instrumented layers.

Class entry points are patched on the class (a classmethod stays a
classmethod). Module functions are patched in every loaded ``repro``
module that holds them, because ``from ... import`` binds a private copy
of the name in each importer. Entry points a later version of the
program no longer has are skipped and listed in :attr:`missing`.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, List, Optional, Tuple

__all__ = ["SpanRecorder", "CLASS_TARGETS", "FUNCTION_TARGETS"]


def _chunk_bytes(args, kwargs) -> int:
    return args[0].nbytes


def _range_bytes(lo_index: int):
    """Bytes of a ``(..., lo, hi)`` call with ``lo`` at ``lo_index``."""
    return lambda args, kwargs: args[lo_index + 1] - args[lo_index]


#: (module, class, attribute, span name, bytes-moved function or None)
CLASS_TARGETS: Tuple[tuple, ...] = (
    ("repro.mpi.datatype", "Datatype", "commit", "mpi.datatype.commit", None),
    ("repro.mpi.datatype", "Datatype", "plan_for", "core.plan.plan_for", None),
    ("repro.core.plan", "TransferPlan", "compile", "core.plan.compile", None),
    ("repro.core.plan", "ChunkPlan", "gather_into", "pack.gather", _chunk_bytes),
    ("repro.core.plan", "ChunkPlan", "scatter_from", "pack.scatter", _chunk_bytes),
    ("repro.mpi.world", "MpiWorld", "run", "sim.run", None),
)

#: (defining module, function, span name, bytes-moved function or None)
FUNCTION_TARGETS: Tuple[tuple, ...] = (
    ("repro.mpi.pack", "pack_range_bytes", "pack.gather", _range_bytes(3)),
    ("repro.mpi.pack", "unpack_range_from", "pack.scatter", _range_bytes(4)),
    ("repro.tune.table", "tuned_transfer_choice", "tune.resolve", None),
)


class SpanRecorder:
    """Per-span call counts, total and self nanoseconds and bytes moved."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.bytes: Counter = Counter()
        #: Entry points not found in the program (``module.name``).
        self.missing: List[str] = []
        # One [child_ns] cell per open span.
        self._stack: List[List[int]] = []
        # (owner, attribute, original value) in installation order.
        self._patches: List[tuple] = []

    # -- measurement ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             nbytes: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``."""
        stack = self._stack
        calls, total, own, moved = self.calls, self.total_ns, self.self_ns, self.bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total[name] += dur
                own[name] += dur - cell[0]
                if nbytes is not None:
                    moved[name] += nbytes(args, kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self) -> "SpanRecorder":
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        for module_name, cls_name, attr, name, nbytes in CLASS_TARGETS:
            owner = getattr(sys.modules.get(module_name), cls_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(name, raw.__func__, nbytes))
            else:
                patched = self.wrap(name, raw, nbytes)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))
        for module_name, fn_name, name, nbytes in FUNCTION_TARGETS:
            original = getattr(sys.modules.get(module_name), fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            patched = self.wrap(name, original, nbytes)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(fn_name) is original):
                    setattr(module, fn_name, patched)
                    self._patches.append((module, fn_name, original))
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
