"""CUDA streams and events with faithful FIFO/engine semantics.

A stream is a FIFO of operations: an operation may not *start* until its
predecessor in the same stream has completed. Operations from different
streams run concurrently, limited only by the hardware engine that serves
them (H2D copy engine, D2H copy engine, execution engine). This is exactly
the concurrency structure the paper's pipeline exploits, and the structure
``cudaStreamQuery``-based manual pipelines (Figure 4(b)) poll.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..sim import CallbackOp, Environment, Event, Resource, Tracer
from ..sim.events import PROCESSED

__all__ = ["Stream", "CudaEvent"]

_stream_ids = itertools.count()


class _StreamOp(CallbackOp):
    """One enqueued stream operation, a callback op (see
    :mod:`repro.sim.process`).

    It walks a kick at enqueue time, the engine request once its FIFO
    predecessor completes, the transfer duration, then
    record/release/apply/complete, each in the queue slot a per-op process
    would take, so simulated timestamps and event order are a process's.
    The kick and the duration are queue entries of the op itself and the
    engine grants it in place: no event, generator frame or claim object
    per op beyond its completion event.
    """

    __slots__ = (
        "stream", "prev_tail", "engine", "duration", "apply_fn", "label",
        "done", "_start",
    )

    def __init__(self, stream, prev_tail, engine, duration, apply_fn, label, done):
        self.stream = stream
        self.prev_tail = prev_tail
        self.engine = engine
        self.duration = duration
        self.apply_fn = apply_fn
        self.label = label
        self.done = done
        self._start = 0.0
        # The kick keeps op start on the event queue (start order between
        # ops enqueued at the same instant stays FIFO, exactly as the
        # per-op process's init event did).
        self._step = _StreamOp._on_kick
        stream.env.schedule_op(self)

    def _on_kick(self) -> None:
        prev = self.prev_tail
        self.prev_tail = None
        if prev._state is PROCESSED:
            self._request()
        else:
            prev.callbacks.append(self._on_tail)

    def _on_tail(self, _event: Event) -> None:
        self._request()

    def _request(self) -> None:
        self._step = _StreamOp._on_granted
        self.engine.request(self)

    def _on_granted(self) -> None:
        env = self.stream.env
        self._start = env.now
        self._step = _StreamOp._on_done
        env.schedule_op(self, self.duration)

    def _on_done(self) -> None:
        stream = self.stream
        env = stream.env
        tracer = stream.tracer
        if tracer.enabled:
            tracer.record(self._start, env.now, self.engine.name, self.label)
        self.engine.release()
        if self.apply_fn is not None and env.functional:
            self.apply_fn()
        stream._pending -= 1
        self.done.succeed()


class Stream:
    """A CUDA stream: an ordered queue of asynchronous operations."""

    def __init__(self, env: Environment, name: str = "", tracer: Optional[Tracer] = None):
        self.env = env
        self.name = name or f"stream{next(_stream_ids)}"
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # Completion event of the most recently enqueued operation. A fresh
        # stream behaves as if an op had just completed.
        self._tail: Event = Event.done(env, label=f"{self.name}:origin")
        self._pending = 0

    @property
    def pending_ops(self) -> int:
        """Number of enqueued-but-incomplete operations."""
        return self._pending

    def enqueue(
        self,
        engine: Resource,
        duration: float,
        apply_fn: Optional[Callable[[], None]] = None,
        label: str = "op",
    ) -> Event:
        """Enqueue an operation and return its completion event.

        ``apply_fn`` performs the functional side effect (the actual byte
        movement) and runs at completion time, so observers that poll the
        simulated memory mid-flight do not see finished data early.
        """
        if duration < 0:
            raise ValueError("operation duration must be non-negative")
        prev_tail = self._tail
        done = self.env.event(label=f"{self.name}:{label}")
        self._tail = done
        self._pending += 1
        _StreamOp(self, prev_tail, engine, duration, apply_fn, label, done)
        return done

    # -- queries -----------------------------------------------------------------
    def query(self) -> bool:
        """``cudaStreamQuery``: True when all enqueued work has completed."""
        return self._tail.processed

    def synchronize(self):
        """``cudaStreamSynchronize`` as a simulation generator.

        Use as ``yield from stream.synchronize()``.
        """
        tail = self._tail
        if not tail.processed:
            yield tail
        return None

    def completion_event(self) -> Event:
        """The completion event of the last enqueued operation."""
        return self._tail

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name} pending={self._pending}>"


class CudaEvent:
    """A CUDA event: a marker recorded into a stream.

    ``record`` captures the stream's current tail; the event is *complete*
    when every operation enqueued before the record point has finished.
    """

    def __init__(self, env: Environment, name: str = "cuda-event"):
        self.env = env
        self.name = name
        self._marker: Optional[Event] = None
        self._record_time: Optional[float] = None
        self._completed_at: Optional[float] = None

    def record(self, stream: Stream) -> None:
        """``cudaEventRecord``: capture ``stream``'s tail, replacing any
        earlier capture (whose pending completion no longer counts)."""
        marker = self._marker = stream.completion_event()
        self._record_time = self.env.now
        if marker.processed:
            self._completed_at = self.env.now
        else:
            self._completed_at = None

            def completed(_event):
                if self._marker is marker:
                    self._completed_at = self.env.now

            marker.callbacks.append(completed)

    @property
    def completion_time(self) -> float:
        """Simulated time at which the recorded work completed.

        Only valid once :meth:`query` is True. For an empty stream this is
        the record time itself.
        """
        if self._marker is None:
            raise RuntimeError(f"event {self.name!r} was never recorded")
        if self._completed_at is None:
            raise RuntimeError(f"event {self.name!r} has not completed")
        return self._completed_at

    def elapsed_time(self, end: "CudaEvent") -> float:
        """``cudaEventElapsedTime``: seconds between two completed events.

        The classic CUDA profiling primitive (the paper's microbenchmarks
        were timed this way). Both events must have completed.
        """
        return end.completion_time - self.completion_time

    @property
    def recorded(self) -> bool:
        return self._marker is not None

    def query(self) -> bool:
        """``cudaEventQuery``: True when the recorded work has completed."""
        if self._marker is None:
            raise RuntimeError(f"event {self.name!r} was never recorded")
        return self._marker.processed

    def synchronize(self):
        """``cudaEventSynchronize`` (a generator)."""
        if self._marker is None:
            raise RuntimeError(f"event {self.name!r} was never recorded")
        if not self._marker.processed:
            yield self._marker
        return None
