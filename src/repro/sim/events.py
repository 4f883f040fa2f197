"""Event primitives for the discrete-event simulation kernel.

The design follows the classic SimPy model: an :class:`Event` is a one-shot
object that moves through three states (pending -> triggered -> processed).
Processes (see :mod:`repro.sim.process`) suspend by yielding events; when an
event is *processed* by the environment, every registered callback runs and
suspended processes resume with the event's value.

Only the features the simulator actually needs are implemented, but they are
implemented completely: success/failure propagation, condition events
(``AllOf``/``AnyOf``), and defused-failure semantics so an unhandled failed
event aborts the simulation loudly instead of being silently dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core import Environment

__all__ = [
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
]

#: Sentinel for an event that has not been scheduled yet.
PENDING = object()
#: Sentinel for an event scheduled but whose callbacks have not yet run.
TRIGGERED = object()
#: Sentinel for an event whose callbacks have run.
PROCESSED = object()

#: Callback *functions* (unbound, i.e. ``bound.__func__``) that are known to
#: drop every reference to their event before returning. A processed
#: :class:`Timeout` whose only callback is one of these can be recycled into
#: the environment's free-list pool (see :meth:`Timeout._process`) -- nothing
#: can observe the object afterwards. Registered beside the callback: a
#: process's resume (:mod:`repro.sim.process`). Callback ops take no
#: timeouts (their timed steps and deadlines are queue entries, see
#: :meth:`Environment.schedule_op`); everything else (conditions, stream
#: tails, user-held events) keeps fresh allocations.
RECYCLABLE_CALLBACKS: set = set()

#: Upper bound on pooled Timeout objects per environment.
TIMEOUT_POOL_CAP = 1024


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (double trigger, ...)."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    label:
        Optional human-readable tag used in tracebacks and traces.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "label", "_defused")

    def __init__(self, env: "Environment", label: str = ""):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._state = PENDING
        self.label = label
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the value is final."""
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defused(self) -> bool:
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    @classmethod
    def done(cls, env: "Environment", value: Any = None, label: str = "") -> "Event":
        """An event that is already successfully processed.

        Useful as the initial tail of a FIFO chain (e.g. a fresh CUDA
        stream behaves as if an operation had just completed).
        """
        event = cls(env, label=label)
        event._ok = True
        event._value = value
        event._state = PROCESSED
        event.callbacks = None
        return event

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env._schedule(self) for the zero-delay case: succeed is
        # the single hottest scheduling site and the extra call frame is
        # measurable. Semantics identical (same key, same lane).
        env = self.env
        self._state = TRIGGERED
        env._eid += 1
        env._imm.append((env._now, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have the exception thrown into
        it. If nothing waits and the failure is never defused, the
        environment raises when it processes the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Chain-trigger: copy success/failure state from another event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- environment hooks ---------------------------------------------------
    def _mark_triggered(self) -> None:
        self._state = TRIGGERED

    def _process(self) -> None:
        """Run callbacks. Called by the environment at the event's time."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise self._value

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._state is PENDING
            else "triggered"
            if self._state is TRIGGERED
            else "processed"
        )
        tag = f" {self.label!r}" if self.label else ""
        return f"<{type(self).__name__}{tag} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Every process start creates one, and so does every delay a process
    waits out, so processed instances are recycled into a per-environment
    free list whenever it is provably safe: the sole registered callback
    is in :data:`RECYCLABLE_CALLBACKS`, meaning no reference to the object
    survives processing. Pooling is a wall-clock optimization only -- a
    pooled timeout is scheduled through the same
    :meth:`Environment._schedule` call as a fresh one, so event order and
    simulated timestamps are those of a fresh timeout.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None, label: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env, label=label)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        # _ok is always True for a Timeout, so the failure re-raise of the
        # base class cannot apply; recycle instead when safe.
        pool = self.env._timeout_pool
        if (
            len(pool) < TIMEOUT_POOL_CAP
            and len(callbacks) == 1
            and getattr(callbacks[0], "__func__", None) in RECYCLABLE_CALLBACKS
        ):
            pool.append(self)


class Condition(Event):
    """An event that triggers when a predicate over child events holds.

    Used through the :class:`AllOf` / :class:`AnyOf` helpers or the ``&`` and
    ``|`` operators on events. The condition's value is a dict mapping each
    *triggered* child event to its value, which makes results easy to pick
    out regardless of completion order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List["Event"], int], bool],
        events: Iterable["Event"],
        label: str = "",
    ):
        super().__init__(env, label=label)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _check(self, event: "Event") -> None:
        # Hot path: one call per child of every AllOf/AnyOf. The `is not
        # PENDING` test is `self.triggered` without the property overhead.
        if self._state is not PENDING:
            if not event._ok:
                # A sibling failed after we already fired; swallow it so the
                # run is not aborted for an outcome nobody can observe.
                event.defuse()
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List["Event"], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List["Event"], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event], label: str = ""):
        super().__init__(env, Condition.all_events, events, label=label)


class AnyOf(Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event], label: str = ""):
        super().__init__(env, Condition.any_events, events, label=label)
