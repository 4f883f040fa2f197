"""Deterministic fault injection for the InfiniBand fabric model.

The five-stage pipeline is normally simulated over a perfect fabric. This
module supplies the *imperfect* one: a :class:`FaultPlan` is a seeded,
reproducible schedule of faults -- control-message drop/duplication/latency
spikes, RDMA write stall or failure -- applied inside
:class:`repro.ib.verbs.HCA` by a :class:`FaultInjector` attached to the
:class:`repro.ib.fabric.Fabric`.

Design rules:

* **Determinism.** Faults are matched by *operation count* (the nth control
  message of a given type on a given link), and the simulator processes
  operations in a deterministic order, so a plan produces the identical
  fault sequence on every run. ``FaultPlan.random(seed)`` derives a plan
  from a seed with a private :class:`random.Random`; the seed is recorded
  on the plan.
* **Zero footprint when disabled.** With no plan (the default) the fabric
  carries no injector and the verbs layer takes the exact pre-fault code
  paths: traces and timestamps are bit-identical to a build without this
  module.
* **Physicality.** An RDMA latency fault is modeled as a TX-side *stall*
  (the HCA holds the transmit engine longer), never as a post-wire delay:
  reliable-connection semantics order a FIN control message behind the
  RDMA data on the same queue pair, and delaying only the data's arrival
  would let a FIN overtake it -- a reordering real RC hardware cannot
  produce.

Recovery from injected faults lives in :mod:`repro.mpi.protocol` and
:mod:`repro.core.pipeline`; the counters live in :data:`repro.perf.stats.PERF`
and every applied fault is appended to ``Tracer.faults``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..perf.stats import PERF

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Environment, Tracer

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "ControlAction",
    "RdmaAction",
    "RdmaError",
    "CancelToken",
]


class RdmaError(RuntimeError):
    """An RDMA work request completed with an error status.

    Raised into any process waiting on the local completion event of a
    failed RDMA write. Without the retry layer armed this aborts the
    simulation loudly; with it, the sender retransmits with backoff.
    """


class CancelToken:
    """Cancellation flag for an in-flight RDMA attempt.

    Real HCAs flush abandoned work requests when a QP transitions to error
    state; the simulation equivalent is this token, checked by the verbs
    process before touching remote memory. Cancelling after the sender has
    timed out guarantees a *stale* attempt can never deliver bytes into a
    landing buffer that has since been recycled for another chunk.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: Valid (op, action) combinations.
_CTL_ACTIONS = ("drop", "duplicate", "delay")
_RDMA_ACTIONS = ("stall", "fail")
_OPS = ("ctl", "rdma_write")


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *what* happens to *which* matching operations.

    ``nth`` is 1-based among the operations matching this spec's filters
    (op kind, optional src/dst node, optional control-message type);
    ``count`` consecutive matches starting there are affected.
    """

    op: str                      #: "ctl" | "rdma_write"
    action: str                  #: ctl: drop/duplicate/delay; rdma: stall/fail
    nth: int = 1                 #: first matching occurrence hit (1-based)
    count: int = 1               #: how many consecutive occurrences
    src: Optional[int] = None    #: source node filter (None = any)
    dst: Optional[int] = None    #: destination node filter (None = any)
    ctl_type: Optional[str] = None  #: payload "type" filter for op="ctl"
    delay: float = 0.0           #: seconds of stall/extra latency

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown fault op {self.op!r}")
        valid = _CTL_ACTIONS if self.op == "ctl" else _RDMA_ACTIONS
        if self.action not in valid:
            raise ValueError(
                f"action {self.action!r} invalid for op {self.op!r} "
                f"(valid: {valid})"
            )
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.action in ("delay", "stall") and self.delay == 0.0:
            raise ValueError(f"{self.action!r} fault needs a positive delay")
        if self.action not in ("delay", "stall") and self.delay != 0.0:
            raise ValueError(f"{self.action!r} fault takes no delay")
        if self.ctl_type is not None and self.op != "ctl":
            # The injector matches RDMA operations without a message type,
            # so a type filter on one could never fire.
            raise ValueError(f"ctl_type filters only op 'ctl', not {self.op!r}")

    def matches(self, op: str, src: int, dst: int, ctl_type: str) -> bool:
        return (
            self.op == op
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.ctl_type is None or self.ctl_type == ctl_type)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule for one simulation run.

    An empty plan (``specs=()``) installs no injector at all; construct
    plans either explicitly or with :meth:`random`.
    """

    specs: Tuple[FaultSpec, ...] = ()
    #: Recorded provenance for generated plans (informational otherwise).
    seed: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        # Accept any iterable of specs but store a tuple (hashable, frozen).
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def active(self) -> bool:
        return self.enabled and bool(self.specs)

    @classmethod
    def random(
        cls,
        seed: int,
        nfaults: int = 4,
        max_nth: int = 6,
        max_delay: float = 300e-6,
    ) -> "FaultPlan":
        """Derive a reproducible mixed-fault schedule from ``seed``."""
        rng = random.Random(seed)
        menu = [
            ("ctl", "drop"), ("ctl", "duplicate"), ("ctl", "delay"),
            ("rdma_write", "stall"), ("rdma_write", "fail"),
        ]
        specs = []
        for _ in range(nfaults):
            op, action = rng.choice(menu)
            delay = 0.0
            if action in ("delay", "stall"):
                delay = rng.uniform(50e-6, max_delay)
            ctl_type = rng.choice(["rts", "cts", "fin", None]) if op == "ctl" else None
            specs.append(FaultSpec(
                op=op, action=action, nth=rng.randint(1, max_nth),
                count=rng.randint(1, 2), ctl_type=ctl_type, delay=delay,
            ))
        return cls(specs=tuple(specs), seed=seed)


@dataclass
class ControlAction:
    """Injector verdict for one control message."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0

    @property
    def any(self) -> bool:
        return self.drop or self.duplicate or self.delay > 0.0


@dataclass
class RdmaAction:
    """Injector verdict for one RDMA write."""

    fail: bool = False
    stall: float = 0.0

    @property
    def any(self) -> bool:
        return self.fail or self.stall > 0.0


class FaultInjector:
    """Applies a :class:`FaultPlan` to verbs operations as they are posted.

    One injector per fabric; the HCAs consult it (when present) once per
    operation, in TX order, which is what makes counter-based matching
    deterministic.
    """

    def __init__(self, env: "Environment", plan: FaultPlan, tracer: "Tracer"):
        self.env = env
        self.plan = plan
        self.tracer = tracer
        #: per-spec tally of operations that matched its filters so far
        self._hits: Dict[int, int] = {i: 0 for i in range(len(plan.specs))}

    # -- matching core ------------------------------------------------------
    def _applicable(self, op: str, src: int, dst: int, ctl_type: str = ""):
        """Specs firing on this operation (advances the per-spec tallies)."""
        fired = []
        for i, spec in enumerate(self.plan.specs):
            if not spec.matches(op, src, dst, ctl_type):
                continue
            self._hits[i] += 1
            n = self._hits[i]
            if spec.nth <= n < spec.nth + spec.count:
                fired.append(spec)
        return fired

    def _note(self, counter: str, kind: str, src: int, dst: int, **meta) -> None:
        PERF.bump(counter)
        self.tracer.record_fault(self.env.now, kind, src=src, dst=dst, **meta)

    # -- queries (called from repro.ib.verbs) --------------------------------
    def on_control(self, src: int, dst: int, payload) -> Optional[ControlAction]:
        """Verdict for a control message about to cross the wire."""
        ctl_type = payload.get("type", "") if isinstance(payload, dict) else ""
        fired = self._applicable("ctl", src, dst, ctl_type)
        if not fired:
            return None
        act = ControlAction()
        for spec in fired:
            if spec.action == "drop":
                act.drop = True
            elif spec.action == "duplicate":
                act.duplicate = True
            else:
                act.delay += spec.delay
        # Drop wins over duplicate: the message never reaches the wire.
        if act.drop:
            act.duplicate = False
            self._note("fault_ctl_drop", "ctl:drop", src, dst, type=ctl_type)
        if act.duplicate:
            self._note("fault_ctl_dup", "ctl:duplicate", src, dst, type=ctl_type)
        if act.delay:
            self._note("fault_ctl_delay", "ctl:delay", src, dst,
                       type=ctl_type, delay=act.delay)
        return act

    def on_rdma(self, src: int, dst: int, nbytes: int) -> Optional[RdmaAction]:
        """Verdict for an RDMA write about to stream."""
        fired = self._applicable("rdma_write", src, dst)
        if not fired:
            return None
        act = RdmaAction()
        for spec in fired:
            if spec.action == "fail":
                act.fail = True
            else:
                act.stall += spec.delay
        if act.stall:
            self._note("fault_rdma_stall", "rdma_write:stall", src, dst,
                       bytes=nbytes, stall=act.stall)
        if act.fail:
            self._note("fault_rdma_fail", "rdma_write:fail", src, dst,
                       bytes=nbytes)
        return act
