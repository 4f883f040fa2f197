"""Process coroutines for the simulation kernel.

A :class:`Process` wraps a generator. The generator yields :class:`Event`
objects; the process suspends until the event is processed and then resumes
with the event's value (or the event's exception thrown into it). A process
is itself an event that triggers when the generator returns, so processes can
wait on each other and be combined with ``AllOf``/``AnyOf``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import PROCESSED, RECYCLABLE_CALLBACKS, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process", "ProcessGenerator"]

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


# A process keeps no reference to the event it waits on, so a Timeout whose
# only waiter is a process can be recycled as soon as the resume callback
# returns.
RECYCLABLE_CALLBACKS.add(Process._resume)
