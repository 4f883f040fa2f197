"""Process coroutines and callback ops for the simulation kernel.

A :class:`Process` wraps a generator. The generator yields :class:`Event`
objects; the process suspends until the event is processed and then resumes
with the event's value (or the event's exception thrown into it). A process
is itself an event that triggers when the generator returns, so processes can
wait on each other and be combined with ``AllOf``/``AnyOf``.

Every piece of per-message work (control sends, RDMA writes, pipeline
chunks, the eager and rendezvous drivers of each message, the armed
recovery layer's waits) and each rank's progress daemon run as *callback
ops* instead: :class:`CallbackOp` objects that advance through plain step
methods. An op stores its next step in ``_step`` and is then itself the
queue entry, in the ``(time, seq)`` slot of the event a process would have
yielded there: :meth:`Environment.schedule_op` queues its kick (where a
process's init event would go) and each timed step (where the timeout
would go), :meth:`Environment.schedule_wire` queues a remote delivery
under its wire key, and :meth:`Resource.request` grants it an engine and
:meth:`Store.request` a buffer or a message in place (where the grant
event would go). On any other event it continues through a callback:
:func:`wait` is its ``yield event``. An op may append its callback
straight onto an event it has just created: a fresh event cannot be
processed yet. Where ops wait on each other, a :class:`Wakeup` stands in
for the event: it is queued in the slot the event's ``succeed()`` took
and runs its waiting ops there, in attach order. A wait with a deadline
is a :class:`Race`, in the slots of the timeout and the ``AnyOf`` a
process would yield. Processes remain for rank programs and user-level
CPU work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .events import PENDING, PROCESSED, RECYCLABLE_CALLBACKS, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["CallbackOp", "Process", "ProcessGenerator", "Race", "Wakeup", "wait"]

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
    """A one-shot wake-up that runs its waiting ops in place.

    The callback-op form of an event that ops wait on. :meth:`fire`
    queues the wake-up itself, in the ``(time, seq)`` slot an event's
    ``succeed()`` takes there; the environment then runs each waiting
    op's stored step in the order they attached, as the event would have
    run its callbacks. An op that attaches once the wake-up is processed
    runs at once, as :func:`wait` continues on a processed event.
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


class Race(CallbackOp):
    """An op's wait for a store grant, an event or a wake-up (still pending),
    raced against a deadline: the op form of a process yielding
    ``AnyOf([wait, env.timeout(delay)])``. The race waits in the store's queue,
    on the event or on the wake-up, and is queued itself ``delay`` from now, in
    the timeout's slot. Whichever runs first queues ``op``, whose ``step`` runs
    in the ``AnyOf``'s slot and asks :meth:`won`; the other runs later as a
    no-op, so a losing deadline still moves the clock as the timeout did.
    """

    __slots__ = ("env", "op", "on")

    def __init__(self, op: CallbackOp, step: Callable, on: Any, delay: float):
        self.env = on.env
        self.op = op
        self.on = on
        self.item = PENDING
        op._step = step
        self._step = Race._run
        if isinstance(on, Event):
            on.callbacks.append(self._completed)
        elif isinstance(on, Wakeup):
            on.wait(self)
        else:  # a store: a kept item is granted now, ahead of the deadline
            on.request(self)
        self.env.schedule_op(self, delay)

    def _run(self) -> None:
        op, self.op = self.op, None
        if op is not None:
            self.env.schedule_op(op)

    def _completed(self, event: Event) -> None:
        event.defuse()  # a completion in error is the op's to read
        self._run()

    def won(self) -> bool:
        """Whether the grant or a successful completion came before the op's
        step, in the deadline's instant too (a store's item is then in
        ``item``); a lost store wait is withdrawn."""
        on, self.on = self.on, None
        if isinstance(on, Event):
            return on._state is not PENDING and on._ok
        if isinstance(on, Wakeup):
            return on.processed
        if self.item is PENDING:
            on.cancel_get(self)
            return False
        return True


# A process keeps no reference to the event it waits on, so a Timeout whose
# only waiter is one can be recycled as soon as the resume callback returns.
RECYCLABLE_CALLBACKS.add(Process._resume)
