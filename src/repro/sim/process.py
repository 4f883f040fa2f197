"""Process coroutines and callback ops for the simulation kernel.

A :class:`Process` wraps a generator. The generator yields :class:`Event`
objects; the process suspends until the event is processed and then resumes
with the event's value (or the event's exception thrown into it). A process
is itself an event that triggers when the generator returns, so processes can
wait on each other and be combined with ``AllOf``/``AnyOf``.

Every piece of per-message work (control sends, RDMA writes, pipeline
chunks, the eager and rendezvous drivers of each message) and each rank's
progress daemon run as *callback ops* instead:
:class:`CallbackOp` objects that advance through plain step methods. An
op stores its next step in ``_step`` and is then itself the queue entry,
in the ``(time, seq)`` slot of the event a process would have yielded
there: :meth:`Environment.schedule_op` queues its kick (where a
process's init event would go) and each timed step (where the timeout
would go), :meth:`Environment.schedule_wire` queues a remote delivery
under its wire key, and :meth:`Resource.request` grants it an engine
and :meth:`Store.request` a buffer or a message in place (where the
grant event would go). On any other event it continues through a
callback: :func:`wait` is its ``yield event``, and :func:`drive` runs
one of the recovery layer's generators inline, as ``yield from`` inside
a process would. An op may append its callback straight onto an event
it has just created: a fresh event cannot be processed yet. Where ops
wait on each other, a :class:`Wakeup` stands in for the event: it is
queued in the slot the event's ``succeed()`` took and runs its waiting
ops there, in attach order. Processes remain for rank programs,
user-level CPU work and the armed recovery layer's monitors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .events import PROCESSED, RECYCLABLE_CALLBACKS, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["CallbackOp", "Process", "ProcessGenerator", "Wakeup", "wait", "drive"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process.

    It behaves like an event: triggered when the generator finishes, with
    the generator's return value as its value.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(env, label=name or getattr(generator, "__name__", ""))
        self.name = self.label
        self._generator = generator
        # Kick off the generator via an immediately-processed initialization
        # event so that process start is itself an event on the queue (start
        # order between processes created at the same instant is FIFO). The
        # zero-delay timeout comes from the environment's recycle pool, so
        # steady-state process creation allocates no event objects.
        # The label reuses the process name unformatted: building an
        # "init:<name>" string per process start shows up in profiles.
        init = env.timeout(0.0, label=self.name)
        init.callbacks.append(self._resume)

    # -- driver ---------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defuse()
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.fail(error)
                return
            if next_event.env is not env:
                self.fail(SimulationError("yielded event belongs to another environment"))
                return

            if next_event._state is PROCESSED:
                # Already done: loop and feed its value straight back in.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            return


class CallbackOp:
    """Base of the callback ops: a queue entry that runs its ``_step``.

    ``_step`` holds the op's next step as a plain function (``Cls._on_x``,
    not ``self._on_x``), which the environment calls with the op when it
    processes the op's queue slot. A bound method stored on the op would
    make a reference cycle, leaving every finished op to the cyclic
    garbage collector instead of freeing it when the last event or engine
    drops it. A :class:`~repro.sim.resources.Store` that grants the op
    leaves the item in ``item`` for that step to read.
    """

    __slots__ = ("_step", "item")

    def _process(self) -> None:
        self._step(self)

    def _take(self, event) -> None:
        """Run the stored step with ``event``'s value as ``item``.

        The callback for an event that stands in for a store grant: the
        armed recovery layer's raced waits, driven inline, hand the op
        their buffer this way.
        """
        self.item = event._value
        self._step(self)


def wait(event: Event, callback: Callable[[Any], None]) -> None:
    """Run ``callback(event)`` once ``event`` is processed.

    The callback-op form of a process's ``yield event``, under the rule of
    :meth:`Process._resume`: an already processed event continues at once;
    any other -- even one already triggered -- continues when the
    environment processes it. Continuing on a merely triggered event would
    run the op's next step earlier in the instant than a process would.
    """
    if event._state is PROCESSED:
        callback(event)
    else:
        event.callbacks.append(callback)


class Wakeup:
    """A one-shot wake-up that runs its waiters in place.

    The callback-op form of an event that ops wait on. Waiters are queue
    entries: a callback op (:meth:`wait`), whose stored step runs, or an
    event (:meth:`event`), the form a process or an inline-driven
    generator yields, which is processed in place. :meth:`fire` queues
    the wake-up itself, in the ``(time, seq)`` slot an event's
    ``succeed()`` takes there; the environment then runs the waiters in
    the order they attached, as the event would have run its callbacks.
    A waiter that attaches once the wake-up is processed runs at once,
    as :func:`wait` continues on a processed event.
    """

    __slots__ = ("env", "_waiters", "_fired")

    def __init__(self, env: "Environment"):
        self.env = env
        self._waiters: Optional[list] = []
        self._fired = False

    @property
    def processed(self) -> bool:
        """True once the waiters have run."""
        return self._waiters is None

    def wait(self, op: "CallbackOp") -> None:
        """Run ``op``'s stored step when the wake-up is processed."""
        if self._waiters is None:
            op._step(op)
        else:
            self._waiters.append(op)

    def event(self, label: str = "") -> Event:
        """An event processed where the wake-up runs its waiters."""
        if self._waiters is None:
            return Event.done(self.env, label=label)
        event = Event(self.env, label=label)
        event._ok = True
        event._value = None
        self._waiters.append(event)
        return event

    def fire(self) -> None:
        """Queue the waiters' run in the slot of an event succeeding now."""
        if self._fired:
            raise SimulationError("wake-up fired twice")
        self._fired = True
        self.env.schedule_op(self)

    def _process(self) -> None:
        waiters, self._waiters = self._waiters, None
        for waiter in waiters:
            waiter._process()


class _Inline:
    """Drives one generator for :func:`drive`.

    Once the generator returns, the driver stands in for a processed event
    whose value is the return value, so the same callback can follow
    :func:`wait` and :func:`drive`.
    """

    __slots__ = ("_generator", "_callback", "_ok", "_value")

    def __init__(self, generator: ProcessGenerator, callback):
        self._generator = generator
        self._callback = callback
        self._ok = True
        self._value = None

    @property
    def value(self) -> Any:
        return self._value

    def _resume(self, event) -> None:
        generator = self._generator
        while True:
            try:
                if event._ok:
                    event = generator.send(event._value)
                else:
                    event.defuse()
                    event = generator.throw(event._value)
            except StopIteration as exc:
                self._value = exc.value
                self._callback(self)
                return
            if event._state is not PROCESSED:
                event.callbacks.append(self._resume)
                return


def drive(generator: ProcessGenerator, callback: Callable[[Any], None]) -> None:
    """Run ``generator`` inline, as ``yield from`` inside a process would.

    Each yielded event is waited on as :meth:`Process._resume` does; no
    kick, no process and no completion event are added, so the schedule is
    the one the enclosing process had. When the generator returns,
    ``callback`` gets a processed stand-in event holding the return value.
    An exception the generator raises propagates out of the callback that
    resumed it and so out of :meth:`Environment.run`.
    """
    inline = _Inline(generator, callback)
    inline._resume(inline)


# A process (or an inline driver) keeps no reference to the event it waits
# on, so a Timeout whose only waiter is one can be recycled as soon as the
# resume callback returns.
RECYCLABLE_CALLBACKS.add(Process._resume)
RECYCLABLE_CALLBACKS.add(_Inline._resume)
